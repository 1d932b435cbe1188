// Property test for simulate_delta(): across random cases and random
// single-task move sequences, the incremental path must stay bitwise
// identical to a fresh full simulation after every move, on multi-core
// devices and under a latency model with per-link loss too, and across the
// fallback boundary cases (invalid state, entry-task moves, tiny prefixes).
// It also pins the counter accounting simulate_delta shares with the full
// path.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gen/device_network_gen.hpp"
#include "sim/latency_model.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace giph {
namespace {

struct MoveStats {
  int replayed = 0;
  int fell_back = 0;
};

/// Exact (bitwise) schedule equality as a bool, for early-exit control flow;
/// testutil::expect_schedules_bitwise_equal reports the per-field details.
bool schedules_equal(const Schedule& a, const Schedule& b) {
  if (a.tasks.size() != b.tasks.size() ||
      a.edge_start.size() != b.edge_start.size() ||
      a.edge_finish.size() != b.edge_finish.size() || a.makespan != b.makespan) {
    return false;
  }
  for (std::size_t v = 0; v < a.tasks.size(); ++v) {
    if (a.tasks[v].start != b.tasks[v].start ||
        a.tasks[v].finish != b.tasks[v].finish) {
      return false;
    }
  }
  for (std::size_t e = 0; e < a.edge_start.size(); ++e) {
    if (a.edge_start[e] != b.edge_start[e] ||
        a.edge_finish[e] != b.edge_finish[e]) {
      return false;
    }
  }
  return true;
}

/// Drives `moves` random feasible single-task moves through simulate_delta
/// (chained: each replay's output becomes the next baseline) and checks the
/// result bitwise against an independent full simulate_into after every step.
MoveStats run_move_sequence(const TaskGraph& g, const DeviceNetwork& n,
                            Placement p, const LatencyModel& lat, int moves,
                            std::uint64_t seed) {
  SimWorkspace ws_delta, ws_full;
  Schedule cur, nxt, full;
  DeltaSimState ds;

  simulate_into(g, n, p, lat, ws_delta, cur, ds);
  simulate_into(g, n, p, lat, ws_full, full);
  testutil::expect_schedules_bitwise_equal(cur, full);

  MoveStats stats;
  std::mt19937_64 rng(seed);
  for (int m = 0; m < moves; ++m) {
    const int v = static_cast<int>(rng() % g.num_tasks());
    const std::vector<int> devs = feasible_devices(g, n, v);
    EXPECT_FALSE(devs.empty()) << "task " << v;
    if (devs.empty()) return stats;
    const int d = devs[rng() % devs.size()];  // may equal the current device
    p.set(v, d);

    const DeltaSimResult r = simulate_delta(g, n, p, v, lat, ws_delta, cur, ds, nxt);
    if (r == DeltaSimResult::kReplayed) {
      ++stats.replayed;
    } else {
      ++stats.fell_back;
    }
    EXPECT_TRUE(ds.valid) << "move " << m;

    simulate_into(g, n, p, lat, ws_full, full);
    if (!schedules_equal(nxt, full)) {
      testutil::expect_schedules_bitwise_equal(nxt, full);
      ADD_FAILURE() << "diverged at move " << m << " (task " << v << " -> device "
                    << d << ", " << (r == DeltaSimResult::kReplayed ? "replayed"
                                                                    : "fell back")
                    << ")";
      return stats;
    }
    std::swap(cur, nxt);
  }
  return stats;
}

/// random_case() plus multi-core devices (cores 1..3), the configuration the
/// FIFO displacement logic is most sensitive to.
testutil::RandomCase multicore_case(std::uint64_t seed, int num_tasks,
                                    int num_devices) {
  testutil::RandomCase c = testutil::random_case(seed, num_tasks, num_devices);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (int d = 0; d < c.network.num_devices(); ++d) {
    c.network.device(d).cores = 1 + static_cast<int>(rng() % 3);
  }
  return c;
}

TEST(DeltaSimProperty, PlainBitwiseAcrossSeeds) {
  DefaultLatencyModel lat;
  int replayed = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    testutil::RandomCase c = testutil::random_case(seed * 101, 24, 5);
    const MoveStats s = run_move_sequence(c.graph, c.network, c.placement, lat, 40, seed);
    replayed += s.replayed;
  }
  // The whole point is that most single-task moves take the incremental path.
  EXPECT_GT(replayed, 60);
}

TEST(DeltaSimProperty, MultiCoreDevices) {
  DefaultLatencyModel lat;
  int replayed = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    testutil::RandomCase c = multicore_case(seed * 313, 30, 4);
    replayed += run_move_sequence(c.graph, c.network, c.placement, lat, 40, seed)
                    .replayed;
  }
  EXPECT_GT(replayed, 0);
}

/// A non-default model: the default one with a static drop probability on
/// three directed links, whose wire time pays the expected retransmits
/// 1 / (1 - p). The comm time of a link then differs from its reverse.
class LossyLinksModel final : public LatencyModel {
 public:
  double compute_time(const TaskGraph& g, const DeviceNetwork& n, int v,
                      int k) const override {
    return base_.compute_time(g, n, v, k);
  }
  double comm_time(const TaskGraph& g, const DeviceNetwork& n, int e, int k,
                   int l) const override {
    const double c = base_.comm_time(g, n, e, k, l);
    const double p = drop(k, l);
    if (p == 0.0) return c;
    const double s = base_.comm_startup(g, n, e, k, l);
    return s + (c - s) / (1.0 - p);
  }

 private:
  static double drop(int k, int l) {
    if (k == 0 && l == 1) return 0.3;
    if (k == 1 && l == 0) return 0.1;
    return k == 2 && l == 4 ? 0.5 : 0.0;
  }

  DefaultLatencyModel base_;
};

TEST(DeltaSimProperty, LossAwareLatency) {
  const LossyLinksModel lat;
  int replayed = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    testutil::RandomCase c = testutil::random_case(seed * 701, 24, 5);
    replayed += run_move_sequence(c.graph, c.network, c.placement, lat, 30, seed)
                    .replayed;
  }
  EXPECT_GT(replayed, 0);
}

TEST(DeltaSimProperty, ForcedFallbackViaMinPrefixFraction) {
  // A fork: entry task 0 feeds every other task. Moving a child puts T0 at
  // task 0's finish, where no task has finished yet, so the unaffected prefix
  // is empty (below the 5% minimum); moving task 0 is an entry move. Every
  // move falls back, the fallback re-records, and the chain keeps producing
  // exact schedules.
  TaskGraph g;
  g.add_task(Task{.compute = 3.0});
  for (int v = 1; v < 20; ++v) {
    g.add_task(Task{.compute = 1.0 + v % 4});
    g.add_edge(0, v, 2.0 + v % 3);
  }
  const DeviceNetwork n = testutil::two_devices();
  Placement p(g.num_tasks());
  for (int v = 0; v < g.num_tasks(); ++v) p.set(v, v % 2);
  DefaultLatencyModel lat;
  const MoveStats s = run_move_sequence(g, n, p, lat, 20, 11);
  EXPECT_EQ(s.replayed, 0);
  EXPECT_EQ(s.fell_back, 20);
}

TEST(DeltaSimProperty, EntryTaskMoveFallsBack) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  DefaultLatencyModel lat;
  SimWorkspace ws;
  Schedule prev, out;
  DeltaSimState ds;
  Placement p = testutil::alternating3();
  simulate_into(g, n, p, lat, ws, prev, ds);

  // Task 0 is an entry task: dirty from t = 0, nothing to reuse.
  p.set(0, 1);
  EXPECT_EQ(simulate_delta(g, n, p, 0, lat, ws, prev, ds, out),
            DeltaSimResult::kFellBack);
  testutil::expect_schedules_bitwise_equal(out, simulate(g, n, p, lat));

  // Task 2's dirty time is its parent's finish (t = 3, task 0 finished at 1):
  // the prefix replays.
  std::swap(prev, out);
  p.set(2, 1);
  EXPECT_EQ(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out),
            DeltaSimResult::kReplayed);
  testutil::expect_schedules_bitwise_equal(out, simulate(g, n, p, lat));
}

TEST(DeltaSimProperty, DirtyTimeSplitsOneTasksInputs) {
  // Task 3 has two inputs: edge 0 from task 0, which finishes at 1, and edge
  // 2 from the moved task 2, whose parent (task 1) finishes at 2. So T0 = 2
  // splits task 3's inputs: edge 0 is sent before T0, and the replay must
  // seed task 3's readiness from its recorded arrival and seq; edge 2 is
  // sent inside the replay. Three speed-1 devices, bandwidth 1, delay 0.
  //   Base (task 2 on d1): t0 [0, 1] d0, t1 [0, 2] d1, t2 [2, 3] d1; edge 0
  //   [1, 7] and edge 2 [3, 7] tie at 7, edge 2 sent later; t3 [7, 9] d2.
  //   Task 2 on d0: edge 2 [4, 8] arrives last (sent after T0): t3 [8, 10].
  //   Task 2 on d2: edge 2 is local, [4, 4]; edge 0 arrives last (sent
  //   before T0): t3 [7, 9].
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 2.0});
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 2.0});
  g.add_edge(0, 3, 6.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 4.0);
  DeviceNetwork n;
  for (int d = 0; d < 3; ++d) n.add_device(Device{.speed = 1.0});
  n.set_symmetric_link(0, 1, 1.0, 0.0);
  n.set_symmetric_link(0, 2, 1.0, 0.0);
  n.set_symmetric_link(1, 2, 1.0, 0.0);
  Placement p(4);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 1);
  p.set(3, 2);
  DefaultLatencyModel lat;
  SimWorkspace ws;
  Schedule prev, out;
  DeltaSimState ds;
  simulate_into(g, n, p, lat, ws, prev, ds);
  ASSERT_EQ(prev.tasks[3].start, 7.0);

  const std::pair<int, double> moves[] = {{0, 8.0}, {2, 7.0}, {1, 7.0}, {0, 8.0}};
  for (const auto& [device, t3_start] : moves) {
    SCOPED_TRACE("task 2 -> d" + std::to_string(device));
    p.set(2, device);
    ASSERT_LT(prev.tasks[0].finish, 2.0);
    ASSERT_EQ(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out),
              DeltaSimResult::kReplayed);
    testutil::expect_schedules_bitwise_equal(out, simulate(g, n, p, lat));
    EXPECT_EQ(out.tasks[3].start, t3_start);
    std::swap(prev, out);
  }
}

TEST(DeltaSimProperty, InvalidStateFallsBack) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  DefaultLatencyModel lat;
  SimWorkspace ws;
  Schedule prev, out;
  Placement p = testutil::alternating3();
  simulate_into(g, n, p, lat, ws, prev);  // no recording: ds stays invalid

  DeltaSimState ds;
  p.set(2, 1);
  EXPECT_EQ(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out),
            DeltaSimResult::kFellBack);
  EXPECT_TRUE(ds.valid);  // the fallback re-recorded
  testutil::expect_schedules_bitwise_equal(out, simulate(g, n, p, lat));
}

TEST(DeltaSimProperty, CounterAccounting) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  DefaultLatencyModel lat;
  SimWorkspace ws;
  Schedule prev, out;
  DeltaSimState ds;
  Placement p = testutil::alternating3();

  const std::uint64_t full0 = full_simulation_count();
  const std::uint64_t delta0 = delta_simulation_count();
  const std::uint64_t fb0 = delta_fallback_count();

  simulate_into(g, n, p, lat, ws, prev, ds);
  EXPECT_EQ(full_simulation_count(), full0 + 1);

  p.set(2, 1);  // replays
  ASSERT_EQ(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out),
            DeltaSimResult::kReplayed);
  EXPECT_EQ(full_simulation_count(), full0 + 1);
  EXPECT_EQ(delta_simulation_count(), delta0 + 1);
  EXPECT_EQ(delta_fallback_count(), fb0);

  std::swap(prev, out);
  p.set(0, 1);  // entry move: falls back, which runs one full simulation
  ASSERT_EQ(simulate_delta(g, n, p, 0, lat, ws, prev, ds, out),
            DeltaSimResult::kFellBack);
  EXPECT_EQ(full_simulation_count(), full0 + 2);
  EXPECT_EQ(delta_simulation_count(), delta0 + 1);
  EXPECT_EQ(delta_fallback_count(), fb0 + 1);

  EXPECT_EQ(simulation_count(),
            full_simulation_count() + delta_simulation_count());
}

TEST(DeltaSimProperty, RejectsAliasedOutput) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  DefaultLatencyModel lat;
  SimWorkspace ws;
  Schedule prev, out;
  DeltaSimState ds;
  Placement p = testutil::alternating3();
  simulate_into(g, n, p, lat, ws, prev, ds);
  EXPECT_THROW(simulate_delta(g, n, p, 2, lat, ws, prev, ds, prev),
               std::invalid_argument);
  EXPECT_THROW(simulate_delta(g, n, p, 99, lat, ws, prev, ds, out),
               std::invalid_argument);

  // An infeasible move names simulate_delta, like its other errors.
  p.set(2, 5);  // no such device
  try {
    simulate_delta(g, n, p, 2, lat, ws, prev, ds, out);
    ADD_FAILURE() << "infeasible move accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "simulate_delta: infeasible placement");
  }
}

}  // namespace
}  // namespace giph
