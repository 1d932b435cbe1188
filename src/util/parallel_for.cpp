#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace giph::util {

int resolve_threads(int threads) {
  if (threads >= 1) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for(int count, int threads, const std::function<void(int)>& body) {
  if (count <= 0) return;
  const int workers = std::min(resolve_threads(threads), count);
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<int> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  int first_error_index = -1;

  auto work = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (first_error_index < 0 || i < first_error_index) {
          first_error = std::current_exception();
          first_error_index = i;
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (int t = 1; t < workers; ++t) pool.emplace_back(work);
  work();  // the caller's thread participates
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

WorkerPool::WorkerPool(int threads) : threads_(resolve_threads(threads)) {
  workers_.reserve(threads_ - 1);
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkerPool::~WorkerPool() {
  try {
    stop_and_drain();
  } catch (...) {
    // A queued task threw and nobody collected it; destruction must not.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

/// Pops and executes one queued task. Called with mu_ held; releases it
/// around the task body. Exceptions are captured into task_error_ (first
/// wins) so one throwing task never wedges the pool or skips later tasks.
void WorkerPool::run_one_queued(int worker, std::unique_lock<std::mutex>& lock) {
  std::function<void(int)> task = std::move(queue_.front());
  queue_.pop_front();
  ++tasks_in_flight_;
  lock.unlock();
  std::exception_ptr err;
  try {
    task(worker);
  } catch (...) {
    err = std::current_exception();
  }
  lock.lock();
  if (err && !task_error_) task_error_ = err;
  --tasks_in_flight_;
  if (queue_.empty() && tasks_in_flight_ == 0) idle_cv_.notify_all();
}

void WorkerPool::worker_loop(int worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shut down with nothing left to run
    run_one_queued(worker, lock);
  }
}

bool WorkerPool::try_submit(std::function<void(int worker)> task) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!accepting_ || shutdown_) return false;
  queue_.push_back(std::move(task));
  if (threads_ == 1) {
    // No background workers: run inline as worker 0 (same capture semantics
    // as the background path, so callers observe one behavior).
    run_one_queued(0, lock);
  } else {
    work_cv_.notify_one();
  }
  return true;
}

void WorkerPool::submit(std::function<void(int worker)> task) {
  if (!try_submit(std::move(task))) {
    throw std::runtime_error("WorkerPool::submit: pool is stopped");
  }
}

void WorkerPool::stop_and_drain() {
  std::unique_lock<std::mutex> lock(mu_);
  accepting_ = false;
  // Wake the workers: with admission closed they must finish what is queued,
  // not wait for more.
  work_cv_.notify_all();
  idle_cv_.wait(lock, [&] { return queue_.empty() && tasks_in_flight_ == 0; });
  if (task_error_) {
    std::exception_ptr err = task_error_;
    task_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

int WorkerPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size()) + tasks_in_flight_;
}

}  // namespace giph::util
