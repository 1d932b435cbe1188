#include "util/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace giph::util {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(103);
  parallel_for(103, 4, [&](int index) { hits[index].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  parallel_for(5, 1, [&](int index) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(index);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  try {
    parallel_for(32, 4, [](int index) {
      // Index 3 throws last, so the rethrow is chosen by index, not arrival.
      if (index == 3) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (index % 7 == 3) throw std::runtime_error("boom " + std::to_string(index));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(ParallelFor, HandlesZeroAndNegativeCounts) {
  int calls = 0;
  parallel_for(0, 2, [&](int) { ++calls; });
  parallel_for(-3, 2, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(WorkerPool, SubmittedTasksAllExecuteExactlyOnce) {
  WorkerPool pool(4);
  std::atomic<int> executed{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&executed](int) { executed.fetch_add(1); });
  }
  pool.stop_and_drain();
  EXPECT_EQ(executed.load(), 200);
  EXPECT_EQ(pool.pending_tasks(), 0);
}

TEST(WorkerPool, SingleThreadedPoolRunsSubmitsInlineAsWorkerZero) {
  WorkerPool pool(1);
  std::vector<int> workers;
  for (int i = 0; i < 5; ++i) {
    pool.submit([&workers](int worker) { workers.push_back(worker); });
  }
  // Inline execution: already done before stop_and_drain.
  ASSERT_EQ(workers.size(), 5u);
  for (const int w : workers) EXPECT_EQ(w, 0);
  pool.stop_and_drain();
}

TEST(WorkerPool, StopAndDrainRejectsLateSubmits) {
  WorkerPool pool(2);
  std::atomic<int> executed{0};
  pool.submit([&executed](int) { executed.fetch_add(1); });
  pool.stop_and_drain();
  EXPECT_FALSE(pool.try_submit([&executed](int) { executed.fetch_add(1); }));
  EXPECT_THROW(pool.submit([](int) {}), std::runtime_error);
  EXPECT_EQ(executed.load(), 1);
}

TEST(WorkerPool, StopAndDrainRethrowsFirstTaskExceptionThenRecovers) {
  WorkerPool pool(1);  // inline: deterministic "first"
  pool.submit([](int) { throw std::runtime_error("task failed"); });
  pool.submit([](int) {});  // later tasks still run
  EXPECT_THROW(pool.stop_and_drain(), std::runtime_error);
  EXPECT_NO_THROW(pool.stop_and_drain());  // error cleared; idempotent
}

// The shutdown-vs-submit race (run under TSan in the -DGIPH_TSAN tree):
// several threads hammer try_submit while the main thread stops the pool.
// Every accepted task must execute exactly once, every rejected submit must
// fail cleanly, and nothing may race or deadlock.
TEST(WorkerPool, ShutdownVersusSubmitRaceLosesNoTasks) {
  for (int round = 0; round < 20; ++round) {
    WorkerPool pool(3);
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 50; ++i) {
          if (pool.try_submit([&executed](int) { executed.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    go.store(true);
    pool.stop_and_drain();
    for (auto& t : submitters) t.join();
    // Drain after the submitters finish: accepted-after-drain tasks (there
    // are none by contract, but the count must still balance).
    pool.stop_and_drain();
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

TEST(WorkerPool, DestructorDrainsPendingTasks) {
  std::atomic<int> executed{0};
  {
    WorkerPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&executed](int) { executed.fetch_add(1); });
    }
  }  // ~WorkerPool must run everything accepted
  EXPECT_EQ(executed.load(), 64);
}

}  // namespace
}  // namespace giph::util
