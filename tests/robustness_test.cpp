#include "eval/robustness_eval.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "baselines/random_policies.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "heft/heft.hpp"
#include "sim/faults.hpp"

namespace giph {
namespace {

const DefaultLatencyModel kLat;

struct Instance {
  TaskGraph g;
  DeviceNetwork n;
};

Instance make_instance(unsigned seed, int tasks = 12, int devices = 5) {
  std::mt19937_64 rng(seed);
  TaskGraphParams gp;
  gp.num_tasks = tasks;
  NetworkParams np;
  np.num_devices = devices;
  Instance inst{generate_task_graph(gp, rng), generate_device_network(np, rng)};
  ensure_feasible(inst.g, inst.n, rng);
  return inst;
}

TEST(Robustness, HeftRowAlwaysPresentAndDeterministic) {
  const Instance inst = make_instance(3);
  std::mt19937_64 plan_rng(21);
  FaultPlanParams fp;
  fp.horizon = 50.0;
  fp.slowdowns = 1;
  fp.crashes = 0;
  const FaultPlan plan = generate_fault_plan(inst.n, fp, plan_rng);

  RandomTaskEftPolicy policy;
  eval::RobustnessOptions opt;
  opt.seed = 5;
  const eval::RobustnessReport a = eval::evaluate_robustness(
      inst.g, inst.n, kLat, plan, {{policy.name(), &policy}}, opt);
  const eval::RobustnessReport b = eval::evaluate_robustness(
      inst.g, inst.n, kLat, plan, {{policy.name(), &policy}}, opt);

  ASSERT_EQ(a.rows.size(), 2u);  // the policy + the implicit HEFT row
  EXPECT_EQ(a.rows.back().placer, "HEFT");
  // Bitwise-deterministic across calls for a fixed seed.
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].placer, b.rows[i].placer);
    EXPECT_EQ(a.rows[i].recoverable, b.rows[i].recoverable);
    EXPECT_EQ(a.rows[i].fault_free_makespan, b.rows[i].fault_free_makespan);
    EXPECT_EQ(a.rows[i].faulted_makespan, b.rows[i].faulted_makespan);
    EXPECT_EQ(a.rows[i].recovery_makespan, b.rows[i].recovery_makespan);
    EXPECT_EQ(a.rows[i].degradation_ratio, b.rows[i].degradation_ratio);
    EXPECT_EQ(a.rows[i].tasks_moved, b.rows[i].tasks_moved);
    EXPECT_EQ(a.rows[i].repair_steps, b.rows[i].repair_steps);
  }
}

TEST(Robustness, HeftRepairCostIsFullReschedule) {
  const Instance inst = make_instance(4, 10, 4);
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 1.0,
                                   .device = 0});

  const eval::RobustnessReport r =
      eval::evaluate_robustness(inst.g, inst.n, kLat, plan, {}, {});
  ASSERT_EQ(r.rows.size(), 1u);
  const eval::RepairOutcome& heft = r.rows[0];
  EXPECT_EQ(heft.placer, "HEFT");
  ASSERT_TRUE(heft.recoverable);
  EXPECT_EQ(heft.repair_steps, inst.g.num_tasks());
  EXPECT_DOUBLE_EQ(heft.repair_fraction, 1.0);
  EXPECT_GT(heft.fault_free_makespan, 0.0);
  EXPECT_GT(heft.recovery_makespan, 0.0);
  EXPECT_DOUBLE_EQ(heft.degradation_ratio,
                   heft.recovery_makespan / heft.fault_free_makespan);
}

TEST(Robustness, EmptyPlanIsZeroDamage) {
  const Instance inst = make_instance(5);
  RandomTaskEftPolicy policy;
  const eval::RobustnessReport r = eval::evaluate_robustness(
      inst.g, inst.n, kLat, FaultPlan{}, {{policy.name(), &policy}}, {});
  for (const eval::RepairOutcome& row : r.rows) {
    ASSERT_TRUE(row.recoverable) << row.placer;
    // No fault fired: the replayed placement completes with its fault-free
    // makespan and the repair cannot do worse.
    EXPECT_EQ(row.faulted_makespan, row.fault_free_makespan) << row.placer;
    EXPECT_EQ(row.stranded_tasks, 0) << row.placer;
    EXPECT_LE(row.recovery_makespan, row.fault_free_makespan + 1e-12)
        << row.placer;
  }
}

TEST(Robustness, PinnedTaskOnCrashedDeviceIsUnrecoverable) {
  // Two devices; task 1 pinned to device 1, which crashes.
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0, .pinned = 1});
  g.add_edge(0, 1, 1.0);
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0});
  n.add_device(Device{.speed = 1.0});
  n.set_symmetric_link(0, 1, 1.0, 0.0);

  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 0.0,
                                   .device = 1});
  const eval::RobustnessReport r =
      eval::evaluate_robustness(g, n, kLat, plan, {}, {});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_FALSE(r.rows[0].recoverable);
  EXPECT_TRUE(std::isinf(r.rows[0].recovery_makespan));
  EXPECT_FALSE(format_report(r).empty());
}

TEST(Robustness, CrashForcesTasksOffFailedDevice) {
  const Instance inst = make_instance(6, 14, 5);
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 0.0,
                                   .device = 2});

  RandomTaskEftPolicy policy;
  eval::RobustnessOptions opt;
  opt.seed = 9;
  const eval::RobustnessReport r = eval::evaluate_robustness(
      inst.g, inst.n, kLat, plan, {{policy.name(), &policy}}, opt);
  for (const eval::RepairOutcome& row : r.rows) {
    ASSERT_TRUE(row.recoverable) << row.placer;
    // The recovered placement lives on the post-fault network, so the
    // recovery makespan is finite and positive.
    EXPECT_TRUE(std::isfinite(row.recovery_makespan)) << row.placer;
    EXPECT_GT(row.recovery_makespan, 0.0) << row.placer;
    EXPECT_GE(row.tasks_moved, 0) << row.placer;
  }
}

// ---------------------------------------------------------------------------
// Exact reports: the scenarios cover a join, a leave, a pinned task whose
// device id shifts (the repair rebuilds its environment), a crashed pinned
// device, a plan that strands nothing (the 2-step repair), a fixed repair
// budget, and a plan that crashes every device. The expected rows were
// printed with %.17g; every field must match bitwise.

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Scenario {
  Instance inst;
  FaultPlan plan;
  eval::RobustnessOptions opt;
};

/// The HEFT makespan of the instance, so event times land inside the run.
double horizon(const Instance& inst) {
  return makespan(inst.g, inst.n, heft_schedule(inst.g, inst.n, kLat).placement, kLat);
}

FaultEvent crash(int device, double time) {
  return FaultEvent{.kind = FaultKind::kDeviceCrash, .time = time, .device = device};
}

/// A device joins, another leaves, one slows down for good, and two links
/// degrade (one transiently). No pins, so the repair rebases. The repair
/// budget is fixed.
Scenario join_and_leave() {
  Scenario s{make_instance(3, 12, 5), {}, {}};
  const double h = horizon(s.inst);
  FaultEvent join{.kind = FaultKind::kDeviceJoin, .time = 0.1 * h};
  join.joined.speed = 3.0;
  join.join_bandwidth = 20.0;
  join.join_delay = 0.1;
  s.plan.events = {
      join,
      FaultEvent{.kind = FaultKind::kDeviceLeave, .time = 0.2 * h, .device = 1},
      FaultEvent{.kind = FaultKind::kSlowdown, .time = 0.3 * h, .device = 0,
                 .factor = 2.0},
      FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 0.1 * h, .link_src = 2,
                 .link_dst = 3, .factor = 3.0, .until = 0.6 * h},
      FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 0.0, .link_src = 3,
                 .link_dst = 4, .factor = 2.0, .delay_add = 0.5}};
  s.opt.seed = 7;
  s.opt.repair_budget = 3;
  return s;
}

/// Task 0 is pinned to device 3; device 1 crashes, so the pin becomes device
/// 2 and the repair builds a new environment.
Scenario pinned_rebuild() {
  Scenario s{make_instance(4, 10, 5), {}, {}};
  s.inst.g.task(0).pinned = 3;
  s.inst.g.task(0).requires_hw = 0;
  s.plan.events = {crash(1, 0.2 * horizon(s.inst))};
  s.opt.seed = 11;
  return s;
}

/// Task 0 is pinned to device 3, which crashes: no repair is possible.
Scenario pinned_crashed() {
  Scenario s{make_instance(4, 10, 5), {}, {}};
  s.inst.g.task(0).pinned = 3;
  s.inst.g.task(0).requires_hw = 0;
  s.plan.events = {crash(3, 0.2 * horizon(s.inst))};
  s.opt.seed = 13;
  return s;
}

/// A transient straggler and a join strand no task: a 2-step repair.
Scenario strands_nothing() {
  Scenario s{make_instance(5, 12, 4), {}, {}};
  const double h = horizon(s.inst);
  FaultEvent join{.kind = FaultKind::kDeviceJoin, .time = 0.2 * h};
  join.joined.speed = 2.0;
  join.join_bandwidth = 10.0;
  s.plan.events = {FaultEvent{.kind = FaultKind::kSlowdown, .time = 0.1 * h,
                              .device = 0, .factor = 3.0, .until = 0.5 * h},
                   join};
  s.opt.seed = 17;
  return s;
}

/// Every device crashes.
Scenario all_crashed() {
  Scenario s{make_instance(6, 8, 4), {}, {}};
  const double h = horizon(s.inst);
  for (int d = 0; d < 4; ++d) s.plan.events.push_back(crash(d, 0.3 * h));
  s.opt.seed = 19;
  return s;
}

eval::RobustnessReport run(const Scenario& s, int threads = 1) {
  RandomTaskEftPolicy eft;
  RandomWalkPolicy walk;
  eval::RobustnessOptions opt = s.opt;
  opt.threads = threads;
  return eval::evaluate_robustness(s.inst.g, s.inst.n, kLat, s.plan,
                                   {{eft.name(), &eft}, {walk.name(), &walk}}, opt);
}

struct Row {
  const char* placer;
  bool recoverable;
  double fault_free, faulted;
  int stranded;
  double recovery, degradation;
  int moved, repair_steps;
  double repair_fraction;
};

void expect_rows(const eval::RobustnessReport& r, const std::vector<Row>& want) {
  ASSERT_EQ(r.rows.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const eval::RepairOutcome& got = r.rows[i];
    const Row& w = want[i];
    SCOPED_TRACE(w.placer);
    EXPECT_EQ(got.placer, w.placer);
    EXPECT_EQ(got.recoverable, w.recoverable);
    EXPECT_EQ(got.fault_free_makespan, w.fault_free);
    EXPECT_EQ(got.faulted_makespan, w.faulted);
    EXPECT_EQ(got.stranded_tasks, w.stranded);
    EXPECT_EQ(got.recovery_makespan, w.recovery);
    EXPECT_EQ(got.degradation_ratio, w.degradation);
    EXPECT_EQ(got.tasks_moved, w.moved);
    EXPECT_EQ(got.repair_steps, w.repair_steps);
    EXPECT_EQ(got.repair_fraction, w.repair_fraction);
  }
}

TEST(Robustness, ExactReports) {
  {
    SCOPED_TRACE("join_and_leave");
    expect_rows(run(join_and_leave()), {
        {"Random-task-eft", true, 50.14884906814973, 74.367057296776252, 0,
         75.460677191139723, 1.5047339788116076, 0, 3, 0.25},
        {"RandomWalk", true, 65.069769375584713, 95.827961095380701, 0,
         98.95899499676068, 1.520813673482786, 0, 3, 0.25},
        {"HEFT", true, 50.126117701076396, 67.133595513331073, 0,
         52.783195546458245, 1.0530078523381194, 4, 12, 1},
    });
  }
  {
    SCOPED_TRACE("pinned_rebuild");
    expect_rows(run(pinned_rebuild()), {
        {"Random-task-eft", true, 46.838132179982786, kInf, 2,
         50.825710621220452, 1.0851353001420889, 1, 2, 0.20000000000000001},
        {"RandomWalk", true, 54.191881189717549, kInf, 3,
         52.795800181138105, 0.97423818885910274, 2, 4, 0.40000000000000002},
        {"HEFT", true, 48.554529304631615, kInf, 2,
         46.942902641564118, 0.96680790265814065, 4, 10, 1},
    });
  }
  {
    SCOPED_TRACE("pinned_crashed");
    expect_rows(run(pinned_crashed()), {
        {"Random-task-eft", false, 48.56255651528835, kInf, 10, kInf, kInf, 0, 0, 0},
        {"RandomWalk", false, 61.618594995473053, kInf, 10, kInf, kInf, 0, 0, 0},
        {"HEFT", false, 48.554529304631615, kInf, 10, kInf, kInf, 0, 0, 0},
    });
  }
  {
    SCOPED_TRACE("strands_nothing");
    expect_rows(run(strands_nothing()), {
        {"Random-task-eft", true, 40.088260988419869, 45.012649289424836, 0,
         40.088260988419869, 1, 0, 2, 0.16666666666666666},
        {"RandomWalk", true, 46.773654866619431, 48.320082266690441, 0,
         46.773654866619431, 1, 0, 2, 0.16666666666666666},
        {"HEFT", true, 40.110959527756386, 43.262621008270912, 0,
         38.512798396836736, 0.96015649713356421, 5, 12, 1},
    });
  }
  {
    SCOPED_TRACE("all_crashed");
    expect_rows(run(all_crashed()), {
        {"Random-task-eft", false, 38.837940664313273, kInf, 7, kInf, kInf, 0, 0, 0},
        {"RandomWalk", false, 41.911724501245672, kInf, 7, kInf, kInf, 0, 0, 0},
        {"HEFT", false, 36.909621588825878, kInf, 7, kInf, kInf, 0, 0, 0},
    });
  }
}

/// `r`'s rows as expected rows; the placer names point into `r`.
std::vector<Row> rows_of(const eval::RobustnessReport& r) {
  std::vector<Row> rows;
  for (const eval::RepairOutcome& o : r.rows) {
    rows.push_back({o.placer.c_str(), o.recoverable, o.fault_free_makespan,
                    o.faulted_makespan, o.stranded_tasks, o.recovery_makespan,
                    o.degradation_ratio, o.tasks_moved, o.repair_steps,
                    o.repair_fraction});
  }
  return rows;
}

TEST(Robustness, ThreadCountIndependent) {
  for (const Scenario& s : {join_and_leave(), pinned_rebuild(), pinned_crashed()}) {
    const eval::RobustnessReport serial = run(s, 1);
    expect_rows(run(s, 4), rows_of(serial));
  }
}

}  // namespace
}  // namespace giph
