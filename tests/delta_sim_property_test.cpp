// Property test for simulate_delta(): across random cases and random
// single-task move sequences, the incremental path's schedule and refreshed
// state must stay bitwise identical to a fresh recording simulation after
// every move, on multi-core devices and under a latency model with per-link
// loss too, and across the fallback boundary cases (invalid state,
// entry-task moves, tiny prefixes). Hand-derived cases pin where the dirty
// time falls. It also pins the counter accounting simulate_delta shares with
// the full path.

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

/// Exact equality of every DeltaSimState field.
bool states_equal(const DeltaSimState& a, const DeltaSimState& b) {
  return a.valid == b.valid && a.runnable_order == b.runnable_order &&
         a.task_event_seq == b.task_event_seq && a.edge_event_seq == b.edge_event_seq &&
         a.total_seq == b.total_seq && a.next_runnable_rank == b.next_runnable_rank;
}

/// Per-field report of a state mismatch (the first differing entry of each
/// per-task or per-edge array).
void expect_states_bitwise_equal(const DeltaSimState& a, const DeltaSimState& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.total_seq, b.total_seq);
  EXPECT_EQ(a.next_runnable_rank, b.next_runnable_rank);
  const auto first_diff = [](const std::vector<long>& x, const std::vector<long>& y,
                             const char* field) {
    ASSERT_EQ(x.size(), y.size()) << field;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] != y[i]) {
        ADD_FAILURE() << field << "[" << i << "]: " << x[i] << " vs " << y[i];
        return;
      }
    }
  };
  first_diff(a.runnable_order, b.runnable_order, "runnable_order");
  first_diff(a.task_event_seq, b.task_event_seq, "task_event_seq");
  first_diff(a.edge_event_seq, b.edge_event_seq, "edge_event_seq");
}

/// Drives `moves` random feasible single-task moves through simulate_delta
/// (chained: each replay's output becomes the next baseline) and checks the
/// schedule and the refreshed state bitwise against an independent recording
/// simulate_into after every step.
MoveStats run_move_sequence(const TaskGraph& g, const DeviceNetwork& n,
                            Placement p, const LatencyModel& lat, int moves,
                            std::uint64_t seed) {
  SimWorkspace ws_delta, ws_full;
  Schedule cur, nxt, full;
  DeltaSimState ds, next_ds, full_ds;

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

    const DeltaSimResult r =
        simulate_delta(g, n, p, v, lat, ws_delta, cur, ds, nxt, next_ds);
    if (r == DeltaSimResult::kReplayed) {
      ++stats.replayed;
    } else {
      ++stats.fell_back;
    }
    EXPECT_TRUE(next_ds.valid) << "move " << m;

    simulate_into(g, n, p, lat, ws_full, full, full_ds);
    if (!schedules_equal(nxt, full) || !states_equal(next_ds, full_ds)) {
      testutil::expect_schedules_bitwise_equal(nxt, full);
      expect_states_bitwise_equal(next_ds, full_ds);
      ADD_FAILURE() << "diverged at move " << m << " (task " << v << " -> device "
                    << d << ", " << (r == DeltaSimResult::kReplayed ? "replayed"
                                                                    : "fell back")
                    << ")";
      return stats;
    }
    std::swap(cur, nxt);
    std::swap(ds, next_ds);
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

TEST(DeltaSimProperty, RefreshedStateEqualsFullRecording) {
  // A replay numbers its seqs and ranks like a full run, so after every
  // chained move the refreshed state, not just the schedule, is bitwise what
  // a fresh recording run writes (run_move_sequence compares every field).
  // Odd seeds draw single-core networks, even seeds multi-core ones.
  DefaultLatencyModel lat;
  int replayed = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const testutil::RandomCase c = seed % 2 == 1
                                       ? testutil::random_case(seed * 977, 24, 5)
                                       : multicore_case(seed * 977, 30, 4);
    replayed += run_move_sequence(c.graph, c.network, c.placement, lat, 60, seed)
                    .replayed;
    if (HasFailure()) return;
  }
  EXPECT_GT(replayed, 6000);
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
  // A fork: entry task 0 (finishing at 3) feeds 40 children. A child's only
  // input arrives at 3 on task 0's device and by 6 on the other, so T0 <= 6
  // for every child move: task 0 and at most one child finish before it in
  // this seeded chain, 2 of 41 tasks, below the 5% minimum (2.05). Moving
  // task 0 is an entry move. Every move falls back, the fallback re-records,
  // and the chain keeps producing exact schedules.
  TaskGraph g;
  g.add_task(Task{.compute = 3.0});
  for (int v = 1; v <= 40; ++v) {
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
  DeltaSimState ds, out_ds;
  Placement p = testutil::alternating3();
  simulate_into(g, n, p, lat, ws, prev, ds);

  // Task 0 is an entry task: dirty from t = 0, nothing to reuse.
  p.set(0, 1);
  DeltaSimReport rep;
  EXPECT_EQ(simulate_delta(g, n, p, 0, lat, ws, prev, ds, out, out_ds, &rep),
            DeltaSimResult::kFellBack);
  EXPECT_EQ(rep.fallback, DeltaFallback::kEntryTask);
  testutil::expect_schedules_bitwise_equal(out, simulate(g, n, p, lat));

  // Now t0 [0, 1] and t1 [1, 3] run on d1, and t2's input reaches d0 at 12.
  // On d1 it arrives at 3, so T0 = 3 is the new arrival; task 0 finished
  // before it: the prefix replays.
  std::swap(prev, out);
  std::swap(ds, out_ds);
  p.set(2, 1);
  EXPECT_EQ(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out, out_ds, &rep),
            DeltaSimResult::kReplayed);
  EXPECT_EQ(rep.fallback, DeltaFallback::kNone);
  testutil::expect_schedules_bitwise_equal(out, simulate(g, n, p, lat));
}

TEST(DeltaSimProperty, DirtyTimeSplitsOneTasksInputs) {
  // Task 3 has two inputs: edge 0 from task 0, which finishes at 1, and edge
  // 2 from the moved task 2, whose parent (task 1) finishes at 2. Task 2's
  // only input arrives at 2 on d1 and at 3 anywhere else, so T0 = 2 splits
  // task 3's inputs: edge 0 is sent before T0, and the replay must seed task
  // 3's readiness from its recorded arrival and seq; edge 2 is sent inside
  // the replay. Three speed-1 devices, bandwidth 1, delay 0.
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
  DeltaSimState ds, out_ds;
  simulate_into(g, n, p, lat, ws, prev, ds);
  ASSERT_EQ(prev.tasks[3].start, 7.0);

  const std::pair<int, double> moves[] = {{0, 8.0}, {2, 7.0}, {1, 7.0}, {0, 8.0}};
  for (const auto& [device, t3_start] : moves) {
    SCOPED_TRACE("task 2 -> d" + std::to_string(device));
    p.set(2, device);
    ASSERT_LT(prev.tasks[0].finish, 2.0);
    ASSERT_EQ(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out, out_ds),
              DeltaSimResult::kReplayed);
    testutil::expect_schedules_bitwise_equal(out, simulate(g, n, p, lat));
    EXPECT_EQ(out.tasks[3].start, t3_start);
    std::swap(prev, out);
    std::swap(ds, out_ds);
  }
}

TEST(DeltaSimProperty, DirtyTimeFollowsTheEarlierArrival) {
  // Task 3 (the moved task) has one input, edge 0 from task 0 [0, 1] on d0,
  // and feeds task 4 on d1 through edge 1. Tasks 1 [0, 0.5] on d1 and 2
  // [0, 4] on the two-core d2 are entry tasks. Speed-1 devices, delay 0;
  // bandwidth 1 on d0-d1 and d1-d2, 2 on d0-d2. Edge 0 (2 bytes) arrives at
  // 1 on d0, 2 on d2 and 3 on d1; edge 1 (1 byte) takes 1 to cross.
  //   Base (task 3 on d1): t3 [3, 5], edge 1 local, t4 [5, 6].
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 0.5});
  g.add_task(Task{.compute = 4.0});
  g.add_task(Task{.compute = 2.0});
  g.add_task(Task{.compute = 1.0});
  g.add_edge(0, 3, 2.0);
  g.add_edge(3, 4, 1.0);
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0});
  n.add_device(Device{.speed = 1.0});
  n.add_device(Device{.speed = 1.0, .cores = 2});
  n.set_symmetric_link(0, 1, 1.0, 0.0);
  n.set_symmetric_link(0, 2, 2.0, 0.0);
  n.set_symmetric_link(1, 2, 1.0, 0.0);
  Placement p(5);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 2);
  p.set(3, 1);
  p.set(4, 1);
  DefaultLatencyModel lat;
  SimWorkspace ws;
  Schedule prev, out;
  DeltaSimState ds, out_ds, full_ds;
  simulate_into(g, n, p, lat, ws, prev, ds);
  ASSERT_EQ(prev.tasks[3].start, 3.0);
  ASSERT_EQ(prev.tasks[4].start, 5.0);

  struct Move {
    int device;
    bool from_new_arrival;  // T0 is the new inputs-ready time
    bool inputs_sent;       // edge 0 was sent before T0
    double t3_start, t4_start;
    const char* what;
  };
  const Move moves[] = {
      // New arrival 1 (local) before the old 3: T0 = 1, where t0's finish
      // is replayed; t3 [1, 3] on d0, edge 1 [3, 4], t4 [4, 5].
      {0, true, false, 1.0, 4.0, "earlier new arrival"},
      // New arrival 2 after the old 1: T0 = 1. t3 takes d2's second core
      // beside t2: [2, 4]; edge 1 [4, 5], t4 [5, 6].
      {2, false, false, 2.0, 5.0, "later new arrival, multi-core device"},
      // Old arrival 2 on d2, new 3 on d1: T0 = 2, after edge 0 was sent at
      // 1, so the rebuild re-keys t3 with the new arrival: t3 [3, 5], t4
      // [5, 6] (the base schedule again).
      {1, false, true, 3.0, 5.0, "later new arrival, input sent before T0"},
      // Same device: T0 = 3 = both arrivals, and the replay reproduces the
      // schedule it starts from.
      {1, false, true, 3.0, 5.0, "same-device move"},
  };
  for (const Move& m : moves) {
    SCOPED_TRACE(m.what);
    p.set(3, m.device);
    DeltaSimReport rep;
    ASSERT_EQ(simulate_delta(g, n, p, 3, lat, ws, prev, ds, out, out_ds, &rep),
              DeltaSimResult::kReplayed);
    EXPECT_EQ(rep.dirty_from_new_arrival, m.from_new_arrival);
    EXPECT_EQ(rep.inputs_sent_before_t0, m.inputs_sent);
    EXPECT_EQ(out.tasks[3].start, m.t3_start);
    EXPECT_EQ(out.tasks[4].start, m.t4_start);
    Schedule full;
    simulate_into(g, n, p, lat, ws, full, full_ds);
    testutil::expect_schedules_bitwise_equal(out, full);
    EXPECT_TRUE(states_equal(out_ds, full_ds));
    std::swap(prev, out);
    std::swap(ds, out_ds);
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

  DeltaSimState ds, out_ds;
  p.set(2, 1);
  DeltaSimReport rep;
  EXPECT_EQ(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out, out_ds, &rep),
            DeltaSimResult::kFellBack);
  EXPECT_EQ(rep.fallback, DeltaFallback::kInvalidState);
  EXPECT_TRUE(out_ds.valid);  // the fallback recorded
  testutil::expect_schedules_bitwise_equal(out, simulate(g, n, p, lat));
}

TEST(DeltaSimProperty, CounterAccounting) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  DefaultLatencyModel lat;
  SimWorkspace ws;
  Schedule prev, out;
  DeltaSimState ds, out_ds;
  Placement p = testutil::alternating3();

  const std::uint64_t full0 = full_simulation_count();
  const std::uint64_t delta0 = delta_simulation_count();
  const std::uint64_t fb0 = delta_fallback_count();

  simulate_into(g, n, p, lat, ws, prev, ds);
  EXPECT_EQ(full_simulation_count(), full0 + 1);

  p.set(2, 1);  // replays
  ASSERT_EQ(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out, out_ds),
            DeltaSimResult::kReplayed);
  EXPECT_EQ(full_simulation_count(), full0 + 1);
  EXPECT_EQ(delta_simulation_count(), delta0 + 1);
  EXPECT_EQ(delta_fallback_count(), fb0);

  std::swap(prev, out);
  std::swap(ds, out_ds);
  p.set(0, 1);  // entry move: falls back, which runs one full simulation
  ASSERT_EQ(simulate_delta(g, n, p, 0, lat, ws, prev, ds, out, out_ds),
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
  DeltaSimState ds, out_ds;
  Placement p = testutil::alternating3();
  simulate_into(g, n, p, lat, ws, prev, ds);
  EXPECT_THROW(simulate_delta(g, n, p, 2, lat, ws, prev, ds, prev, out_ds),
               std::invalid_argument);
  EXPECT_THROW(simulate_delta(g, n, p, 2, lat, ws, prev, ds, out, ds),
               std::invalid_argument);
  EXPECT_THROW(simulate_delta(g, n, p, 99, lat, ws, prev, ds, out, out_ds),
               std::invalid_argument);

  // An infeasible move names simulate_delta, like its other errors.
  p.set(2, 5);  // no such device
  try {
    simulate_delta(g, n, p, 2, lat, ws, prev, ds, out, out_ds);
    ADD_FAILURE() << "infeasible move accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "simulate_delta: infeasible placement");
  }
}

}  // namespace
}  // namespace giph
