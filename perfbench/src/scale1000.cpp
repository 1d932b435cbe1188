// scale1000: repeated HierarchicalPlacer construction plus place() on a
// 1000-task graph (alpha 0.8, p_connect 2/1000) over a 100-device sparse
// topology: 49 clusters, sparse gpNet top-8, 3 refine rounds. Simulator-bound:
// refinement tries thousands of moves, each a delta replay or a full run; the
// only NN work is the coarse search over the cluster graph.
//
// Untraced run: whole placements back to back; each must be feasible,
// monotone under refinement, equal to the first placement bitwise, and its
// refined SLR must equal objective_of() of the returned placement.
//
// Traced run: the same placement split into its public stages (constructor =
// partition, place_clusters = coarse search, expand, refine), with the
// process simulator counters read around each stage.

#include "common.hpp"
#include "core/giph_agent.hpp"
#include "core/hierarchical.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "graph/topology.hpp"
#include "heft/heft.hpp"
#include "sim/metrics.hpp"

namespace perfbench {
namespace {

using namespace giph;

constexpr std::uint64_t kPlaceSeed = 5;

/// perf_scale's sparse topology: random spanning tree plus 2m chords.
DeviceNetwork make_sparse_network(int num_devices, std::mt19937_64& rng) {
  NetworkParams np;
  np.num_devices = num_devices;
  DeviceNetwork n = generate_device_network(np, rng);
  std::vector<PhysicalLink> links;
  std::uniform_real_distribution<double> bw(20.0, 80.0);
  std::uniform_real_distribution<double> dl(0.1, 2.0);
  for (int i = 1; i < num_devices; ++i) {
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    links.push_back({j, i, bw(rng), dl(rng), true});
  }
  for (int c = 0; c < 2 * num_devices; ++c) {
    const int a = static_cast<int>(rng() % num_devices);
    const int b = static_cast<int>(rng() % num_devices);
    if (a == b) continue;
    links.push_back({a, b, bw(rng), dl(rng), true});
  }
  apply_topology(n, links);
  return n;
}

/// The seed's jittered copies of the instance. One copy's refined SLR swings
/// by 10-30% with any perturbation (refinement is a greedy hill-climb), so the
/// slr metric averages several.
constexpr int kInstances = 3;

struct Instance {
  TaskGraph g;
  double heft_slr = 0.0;  ///< flat HEFT reference
};

struct Setup {
  std::vector<Instance> inst;
  DeviceNetwork n;
  HierarchicalOptions hopt;
  std::unique_ptr<GiPHAgent> agent;
};

void make_setup(const Args& args, const LatencyModel& lat, Setup& s) {
  const int num_tasks = args.tiny ? 200 : 1000;
  const int num_devices = args.tiny ? 20 : 100;
  // perf_scale's quick instance, with this run's jitter on each copy.
  std::mt19937_64 rng(20260808);
  TaskGraphParams gp;
  gp.num_tasks = num_tasks;
  gp.alpha = 0.8;
  gp.p_connect = 2.0 / num_tasks;
  const TaskGraph base = generate_task_graph(gp, rng);
  s.n = make_sparse_network(num_devices, rng);
  ensure_feasible(base, s.n, rng);
  std::mt19937_64 jitter = input_rng(args.seed, 1000);
  s.inst.assign(kInstances, Instance{});
  for (Instance& in : s.inst) {
    in.g = base;
    jitter_graph(in.g, jitter);
    const Placement heft = heft_schedule(in.g, s.n, lat).placement;
    in.heft_slr = makespan(in.g, s.n, heft, lat) / slr_denominator(in.g, s.n, lat);
  }
  s.hopt = HierarchicalOptions{};
  s.hopt.partition.num_clusters = std::max(8, num_tasks / 20);
  s.hopt.refine_rounds = 3;
  GiPHOptions gopt;
  gopt.gpnet_topk = 8;
  s.agent = std::make_unique<GiPHAgent>(gopt);
}

struct PlaceResult {
  Placement placement;
  HierarchicalStats stats;
  double seconds = 0.0;  ///< wall
  CpuTimes cpu;
};

PlaceResult place_once(const Setup& s, const TaskGraph& g, const LatencyModel& lat) {
  PlaceResult r;
  const Clock::time_point t0 = Clock::now();
  const CpuTimes c0 = CpuTimes::now();
  HierarchicalPlacer placer(g, s.n, lat, s.hopt);
  std::mt19937_64 rng(kPlaceSeed);
  r.placement = placer.place(*s.agent, rng, &r.stats);
  r.cpu = CpuTimes::now() - c0;
  r.seconds = seconds_since(t0);
  return r;
}

/// Output checks of one placement against the first one of its instance.
bool placement_ok(const Setup& s, const TaskGraph& g, const LatencyModel& lat,
                  const PlaceResult& r, const Placement& reference, Report& report) {
  const HierarchicalPlacer checker(g, s.n, lat, s.hopt);
  const HierarchicalStats& st = r.stats;
  bool ok =
      report.check(is_feasible(g, s.n, r.placement), "hierarchical placement feasible");
  ok = report.check(st.refined_objective <= st.expanded_objective,
                    "refinement never worsens the expansion") && ok;
  ok = report.check(st.refined_objective == checker.objective_of(r.placement),
                    "refined SLR equals objective_of(placement)") && ok;
  ok = report.check(r.placement == reference, "repeated placements bitwise-equal") && ok;
  return ok;
}

}  // namespace

void run_scale1000(const Args& args, Report& report) {
  const double S = args.seconds;
  const DefaultLatencyModel lat;
  Setup s;
  SetupTime setup;
  setup.burst([&] { make_setup(args, lat, s); });
  report.input_digest = kDigestBasis;
  for (const Instance& in : s.inst) {
    report.input_digest = digest_graph(in.g, report.input_digest);
  }

  if (!args.trace) {
    // Each copy once (the slr figure, and the warm-up), then the first copy
    // again for the run's whole budget. Timing comes from those repeats
    // only, as repeated identical work: best-of convention (as in the repo's
    // perf benches), since other jobs on a shared machine only ever slow a
    // placement down, plus the median.
    std::vector<PlaceResult> first;
    std::vector<double> ms, cpu_s;
    CpuTimes spent;
    SpeedProbe probe;
    double timed_s = 0.0;
    for (int i = 0; i < kInstances + 2 || timed_s < 0.9 * S; ++i) {
      const int k = i < kInstances ? i : 0;
      const TaskGraph& g = s.inst[static_cast<std::size_t>(k)].g;
      PlaceResult r = place_once(s, g, lat);
      const Placement& ref = i < kInstances ? r.placement : first[0].placement;
      report.op(placement_ok(s, g, lat, r, ref, report));
      if (i < kInstances) {
        first.push_back(std::move(r));
      } else {
        timed_s += r.seconds;
        ms.push_back(1e3 * r.seconds);
        cpu_s.push_back(r.cpu.thread);
        spent += r.cpu;
      }
      probe.tick();
    }
    double slr = 0.0, vs_heft = 0.0;
    for (int k = 0; k < kInstances; ++k) {
      slr += first[k].stats.refined_objective / kInstances;
      vs_heft += first[k].stats.refined_objective / s.inst[k].heft_slr / kInstances;
    }
    report.check_on_thread(spent, "hierarchical placement");
    const auto n = static_cast<std::int64_t>(ms.size());
    setup.burst([&] {
      Setup t;
      make_setup(args, lat, t);
    });
    report.add("setup_s", probe.to_reference(setup.seconds), "s", setup.runs);
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    const double fastest_s = percentile(cpu_s, 0.0);
    report.add("throughput_per_s", 1.0 / probe.to_reference(fastest_s), "1/s", n);
    report.add("slr", slr, "ratio", kInstances);
    report.info("place_s", 1e-3 * median(ms), "s", n);
    report.info("placements_per_s", 1.0 / fastest_s, "1/s", n);
    report.info("setup_s.measured", setup.seconds, "s", setup.runs);
    report.info("probe.slowdown", probe.slowdown(), "ratio", probe.runs());
    report.info("hier_vs_heft", vs_heft, "ratio", kInstances);
    return;
  }

  // Traced run, on the first instance: the reference placement (also the
  // warm-up), then an untraced baseline for the overhead figure.
  const TaskGraph& g = s.inst.front().g;
  const PlaceResult first = place_once(s, g, lat);
  report.op(placement_ok(s, g, lat, first, first.placement, report));
  const double slr = first.stats.refined_objective;
  // Untraced baseline for the overhead figure.
  const PlaceResult base = place_once(s, g, lat);
  report.op(placement_ok(s, g, lat, base, first.placement, report));

  // sim.full_run_ms: one simulate_into of this instance, timed on its own.
  std::vector<double> full_ms;
  {
    SimWorkspace ws;
    Schedule out;
    for (int i = 0; i < 21; ++i) {
      const Clock::time_point t0 = Clock::now();
      simulate_into(g, s.n, first.placement, lat, ws, out);
      full_ms.push_back(1e3 * seconds_since(t0));
    }
  }

  Span ctor, coarse, expand, refine;
  double op_seconds = 0.0;
  SimCounters stage_sims[4];
  std::int64_t tries = 0, kept = 0;
  int ops = 0;
  const Clock::time_point end = after_seconds(0.7 * S);
  do {
    const Clock::time_point t_op = Clock::now();
    SimCounters c = SimCounters::now();
    auto lap = [&](int stage) {
      const SimCounters now = SimCounters::now();
      stage_sims[stage] = stage_sims[stage] + (now - c);
      c = now;
    };
    HierarchicalPlacer placer =
        timed(ctor, [&] { return HierarchicalPlacer(g, s.n, lat, s.hopt); });
    lap(0);
    std::mt19937_64 rng(kPlaceSeed);
    HierarchicalStats st;
    st.num_clusters = placer.partition().num_clusters();
    const Placement cp = timed(coarse, [&] {
      return placer.place_clusters(*s.agent, rng, &st.coarse_objective);
    });
    lap(1);
    Placement fine = timed(expand, [&] { return placer.expand(cp); });
    lap(2);
    timed(refine, [&] { return placer.refine(fine, &st); });
    lap(3);
    op_seconds += seconds_since(t_op);
    tries += st.refine_moves_tried;
    kept += st.refine_moves_kept;
    ++ops;
    const PlaceResult r{fine, st, 0.0, {}};
    report.op(placement_ok(s, g, lat, r, first.placement, report));
  } while (Clock::now() < end);

  const SimCounters all = stage_sims[0] + stage_sims[1] + stage_sims[2] + stage_sims[3];
  const double per_op = 1.0 / ops;
  const double stages = ctor.seconds + coarse.seconds + expand.seconds + refine.seconds;
  report.add("gen.grouping.partition_s", ctor.seconds * per_op, "s", ops);
  report.add("core.hierarchical.coarse_s", coarse.seconds * per_op, "s", ops);
  report.add("core.hierarchical.expand_s", expand.seconds * per_op, "s", ops);
  report.add("core.hierarchical.refine_s", refine.seconds * per_op, "s", ops);
  report.add("core.hierarchical.refine_tries", tries * per_op, "count", ops);
  report.add("core.hierarchical.refine_kept", kept * per_op, "count", ops);
  report.add("core.hierarchical.vs_heft", slr / s.inst.front().heft_slr, "ratio", 1);
  report.add("sim.runs_per_try",
             tries == 0 ? 0.0
                        : static_cast<double>(stage_sims[3].total()) /
                              static_cast<double>(tries),
             "ratio", tries);
  report.add("sim.full_run_ms", median(full_ms), "ms",
             static_cast<std::int64_t>(full_ms.size()));
  add_sim_counters(report, all, ops);
  report.add("trace.overhead_frac", op_seconds / ops / base.seconds - 1.0, "ratio", ops);
  report.add("trace.unattributed_frac", 1.0 - stages / op_seconds, "ratio", ops);
  const char* names[4] = {"partition", "coarse", "expand", "refine"};
  for (int i = 0; i < 4; ++i) {
    const std::string prefix = std::string("sim.") + names[i];
    const SimCounters& c = stage_sims[i];
    report.info(prefix + ".full_runs", static_cast<double>(c.full) * per_op, "count",
                ops);
    report.info(prefix + ".delta_replays", static_cast<double>(c.delta) * per_op, "count",
                ops);
  }
  report.info("slr", slr, "ratio", 1);
}

}  // namespace perfbench
