// Deterministic differential fuzz harness for the simulator stack.
//
// Each case derives a seeded random (task graph, device network, placement)
// triple from the existing generators, sweeping task counts, graph shape,
// extra entry tasks, device counts, hardware-constraint density, multi-core
// devices, noise, NIC contention (add_nic_links), fault plans, and the
// dynamic-conditions stack: network traces (piecewise-constant bandwidth /
// delay / drop breakpoints, some in force from t = 0) and shared-link
// contention over random sparse topologies. One generator (draw_instance and
// its helpers) serves the plain and --stream modes. On every case it asserts:
//   - simulate(), simulate_into() (with a reused workspace), and the
//     independent oracle_simulate() agree bitwise on every time;
//   - check_schedule() finds no invariant violation;
//   - simulate_with_faults() with an empty plan reduces bitwise to
//     simulate(), and with a generated plan is replay-deterministic, agrees
//     bitwise with the independent oracle_simulate_with_faults() (schedule,
//     stranded tasks, failed devices), and passes the fault-aware invariant
//     check;
//   - on a sampled subset, the inactive-config reductions: an empty
//     NetworkTrace and a shared-link map with no physical links must leave
//     the output bitwise identical to the plain run.
//
// Fault cases never carry a NetworkTrace (simulate_with_faults rejects one:
// the plan's link degrades already are its trace); shared links, NIC links
// and noise compose with everything.
//
// With --delta, every non-fault case additionally runs a chain of random
// one-task moves on its graph, network, placement and latency model under
// the static model (no noise, trace or link contention: the only model
// simulate_delta() replays), asserting that simulate_delta()'s schedule and
// refreshed DeltaSimState stay bitwise identical to a from-scratch recording
// simulation at each step (whether it replayed incrementally or fell back).
// The summary counts replays by class and fallbacks by cause.
//
// Any failure prints the exact flags reproducing that single case. The plain
// and --stream summaries count every case class they draw; a run of at least
// 400 cases that drew none of a class exits 1. The CI smoke job runs >= 12k
// cases; `ctest -L property` runs a quick subset.
//
// With --parse the harness instead fuzzes the text parsers: each case builds
// a valid serving request (task graph + device network + optional warm-start
// placement) and a response, asserts writer -> reader -> writer is a byte
// identity, then applies random mutations (truncation, byte flips, token
// substitution, line deletion/duplication, garbage insertion) and asserts
// every parser entry point (read_request, read_response, and the checked-file
// frame unwrapper) either succeeds or throws std::exception with a message —
// never crashes, hangs, or aborts.
//
// With --stream the harness fuzzes iterated-graph execution: each case draws
// a (graph, network, placement) triple plus streaming options (frame count,
// inter-arrival interval scaled to the one-shot makespan, jitter, noise, NIC
// links, traces, shared links) and asserts that
// simulate_streaming(), simulate_streaming_into() (reused workspace), and the
// independent oracle_simulate_streaming() agree bitwise on every time and
// metric, that check_stream_result() finds no violation, and that F = 1
// reduces bitwise to simulate().
//
// With --hier the harness fuzzes the scale tier instead: each case partitions
// a random (graph, network) pair — including pinned tasks, which exercise the
// partitioner's forced cuts — and asserts the partition invariants (every
// task in exactly one cluster, coarse graph acyclic and feasible, compute and
// bytes conserved, repeat runs identical), that expanding a random feasible
// coarse placement yields a feasible fine placement constant on clusters,
// that a full HierarchicalPlacer run returns a feasible placement whose
// refined objective never exceeds the expanded one and agrees BITWISE with an
// independent flat simulation of the returned placement, that refine()
// (try_move, commit on improvement) matches the apply/revert
// reference_refine() byte for byte (placement, objective, moves tried and
// kept) while running exactly one simulation per try plus the initial one,
// that the sparse gpNet at k >= D is structurally identical to the dense
// one, and that the subset EST sweep reproduces the full sweep's rows
// bitwise.
//
// Usage: giph_fuzz [--cases N] [--seed S] [--start K] [--delta] [--parse]
//                  [--hier] [--stream] [--verbose]

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <sstream>

#include "core/giph_agent.hpp"
#include "core/gpnet.hpp"
#include "core/hierarchical.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/grouping.hpp"
#include "gen/task_graph_gen.hpp"
#include "graph/placement.hpp"
#include "graph/topology.hpp"
#include "serve/protocol.hpp"
#include "sim/schedule_index.hpp"
#include "sim/faults.hpp"
#include "sim/network_trace.hpp"
#include "sim/simulator.hpp"
#include "util/checked_file.hpp"
#include "verify/invariants.hpp"
#include "verify/oracle.hpp"
#include "verify/reference_refine.hpp"

namespace {

using namespace giph;

const DefaultLatencyModel kLat;

// splitmix64: decorrelates the per-case mt19937_64 streams of adjacent case
// indices (seeding mt19937_64 with nearby integers is not enough).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

int uniform_int(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// A random (graph, network) pair, not yet made feasible: every generator
/// parameter drawn from the fuzz ranges (up to `max_tasks` tasks on up to
/// `max_devices` devices). Every simulation mode draws its instance here.
void draw_graph_and_network(std::mt19937_64& rng, int max_tasks, int max_devices,
                            TaskGraph& g, DeviceNetwork& n) {
  TaskGraphParams gp;
  gp.num_tasks = uniform_int(rng, 2, max_tasks);
  gp.alpha = uniform(rng, 0.5, 2.0);
  gp.p_connect = uniform(rng, 0.0, 0.6);
  gp.mean_compute = uniform(rng, 10.0, 200.0);
  gp.mean_bytes = uniform(rng, 10.0, 200.0);
  gp.het_compute = uniform(rng, 0.0, 0.9);
  gp.het_bytes = uniform(rng, 0.0, 0.9);
  gp.num_hw_kinds = uniform_int(rng, 1, 6);
  gp.p_task_requires = uniform(rng, 0.0, 0.6);

  NetworkParams np;
  np.num_devices = uniform_int(rng, 1, max_devices);
  np.mean_speed = uniform(rng, 1.0, 20.0);
  np.mean_bandwidth = uniform(rng, 5.0, 100.0);
  np.mean_delay = uniform(rng, 0.0, 3.0);
  np.het_speed = uniform(rng, 0.0, 0.9);
  np.het_bandwidth = uniform(rng, 0.0, 0.9);
  np.num_hw_kinds = gp.num_hw_kinds;
  np.p_hw_support = uniform(rng, 0.3, 1.0);

  g = generate_task_graph(gp, rng);
  n = generate_device_network(np, rng);
}

/// A random ordered pair of distinct devices.
std::pair<int, int> draw_remote_pair(std::mt19937_64& rng, int m) {
  const int src = uniform_int(rng, 0, m - 1);
  const int dst = uniform_int(rng, 0, m - 2);
  return {src, dst >= src ? dst + 1 : dst};
}

/// The instance and dynamic network conditions of a plain or --stream case.
struct FuzzInstance {
  TaskGraph graph;
  DeviceNetwork network;
  Placement placement;
  int extra_entries = 0;  ///< entry tasks added to the generator's one
  bool multi_core = false;
  bool nic = false;  ///< NIC contention: one link per device (add_nic_links)
  bool with_trace = false;
  bool trace_from_start = false;  ///< some link's first segment is at t = 0
  NetworkTrace trace;
  bool with_shared = false;  ///< a random sparse physical topology
  SharedLinkMap shared;      ///< its links, then the NIC links when `nic`
  std::uint64_t sim_seed = 0;  // seeds the noise engine of every replay
  std::string shape;           // one-line description for failure reports

  const SharedLinkMap* links() const { return with_shared || nic ? &shared : nullptr; }
};

/// Draws the instance: graph and network, one or two extra entry tasks for a
/// quarter of the cases, feasibility, multi-core servers for a third of the
/// cases, and a random placement.
void draw_instance(std::mt19937_64& rng, int max_tasks, int max_devices,
                   FuzzInstance& c) {
  draw_graph_and_network(rng, max_tasks, max_devices, c.graph, c.network);
  // The generator emits a single entry task; an extra one feeds a random
  // generated task, so one-shot runs and every frame release several.
  const int generated = c.graph.num_tasks();
  if (uniform(rng, 0.0, 1.0) < 0.25) {
    c.extra_entries = uniform_int(rng, 1, 2);
    for (int x = 0; x < c.extra_entries; ++x) {
      const int entry = c.graph.add_task(Task{.compute = uniform(rng, 10.0, 200.0)});
      const int target = uniform_int(rng, 0, generated - 1);
      c.graph.add_edge(entry, target, uniform(rng, 10.0, 200.0));
    }
  }
  ensure_feasible(c.graph, c.network, rng);
  c.multi_core = uniform(rng, 0.0, 1.0) < 0.33;
  if (c.multi_core) {
    for (int d = 0; d < c.network.num_devices(); ++d) {
      c.network.device(d).cores = uniform_int(rng, 1, 4);
    }
  }
  c.placement = random_placement(c.graph, c.network, rng);
}

/// Projects a random sparse physical topology onto the network and keeps its
/// shared-link map: a spanning tree (mostly bidirectional) plus, with
/// `chords`, up to two extra links, so most pairs route through shared
/// physical links and some may be one-way unreachable (apply_topology
/// punishes those with near-zero bandwidth).
void draw_topology(std::mt19937_64& rng, bool chords, FuzzInstance& c) {
  const int m = c.network.num_devices();
  c.with_shared = true;
  std::vector<PhysicalLink> phys;
  std::vector<int> order(m);
  for (int k = 0; k < m; ++k) order[k] = k;
  std::shuffle(order.begin(), order.end(), rng);
  for (int k = 1; k < m; ++k) {
    phys.push_back({order[uniform_int(rng, 0, k - 1)], order[k], uniform(rng, 5.0, 100.0),
                    uniform(rng, 0.0, 2.0), uniform(rng, 0.0, 1.0) < 0.8});
  }
  for (int x = chords ? uniform_int(rng, 0, 2) : 0; x > 0; --x) {
    const int a = uniform_int(rng, 0, m - 1);
    const int b = uniform_int(rng, 0, m - 1);
    if (a == b) continue;
    phys.push_back({a, b, uniform(rng, 5.0, 100.0), uniform(rng, 0.0, 2.0), true});
  }
  apply_topology(c.network, phys);
  c.shared = build_shared_link_map(m, phys);
}

/// Piecewise-constant conditions on 1..max_links random device pairs, with
/// breakpoints scaled to `span` so segments land inside the run. A quarter
/// of the links start in their first segment's condition at t = 0: the
/// simulator applies it as a breakpoint, the oracle seeds the link with it.
void draw_trace(std::mt19937_64& rng, double span, int max_links, FuzzInstance& c) {
  c.with_trace = true;
  for (int x = uniform_int(rng, 1, max_links); x > 0; --x) {
    const auto [src, dst] = draw_remote_pair(rng, c.network.num_devices());
    LinkSchedule& ls = c.trace.link(src, dst);
    if (!ls.segments.empty()) continue;  // pair drawn twice
    const bool from_start = uniform(rng, 0.0, 1.0) < 0.25;
    c.trace_from_start = c.trace_from_start || from_start;
    double t = from_start ? 0.0 : uniform(rng, 0.0, span * 0.5);
    for (int s = uniform_int(rng, 1, 3); s > 0; --s) {
      TraceSegment seg;
      seg.time = t;
      seg.bandwidth_factor = uniform(rng, 0.3, 2.5);
      if (uniform(rng, 0.0, 1.0) < 0.5) seg.delay_add = uniform(rng, 0.0, 2.0);
      if (uniform(rng, 0.0, 1.0) < 0.5) seg.drop_prob = uniform(rng, 0.0, 0.6);
      ls.segments.push_back(seg);
      t += uniform(rng, span * 0.05, span * 0.5);
    }
  }
}

/// Case counts per drawn class, in summary-line order.
using Coverage = std::vector<std::pair<const char*, std::uint64_t>>;

/// Runs of at least this many cases must draw every class they report.
constexpr std::uint64_t kCoverageMinCases = 400;

/// Formats "N class, N class, ..." for a summary line. A run of at least
/// kCoverageMinCases cases that drew no case of a class has lost it (a
/// generator edit stopped drawing it): that is reported and clears `covered`.
std::string format_coverage(const Coverage& classes, std::uint64_t cases,
                            bool& covered) {
  std::string out;
  for (const auto& [name, count] : classes) {
    out += (out.empty() ? "" : ", ") + std::to_string(count) + " " + name;
    if (count == 0 && cases >= kCoverageMinCases) {
      std::fprintf(stderr, "giph_fuzz: coverage gap: no %s case in %llu cases\n", name,
                   static_cast<unsigned long long>(cases));
      covered = false;
    }
  }
  return out;
}

/// Counts of the instance classes both simulation modes draw.
struct InstanceCounts {
  std::uint64_t traced = 0, traced_from_start = 0, shared = 0, nic = 0, multi_entry = 0,
                multi_core = 0;

  void add(const FuzzInstance& c) {
    traced += c.with_trace ? 1 : 0;
    traced_from_start += c.trace_from_start ? 1 : 0;
    shared += c.with_shared ? 1 : 0;
    nic += c.nic ? 1 : 0;
    multi_entry += c.extra_entries > 0 ? 1 : 0;
    multi_core += c.multi_core ? 1 : 0;
  }
  void append_to(Coverage& classes) const {
    classes.insert(classes.end(), {{"traced", traced},
                                   {"traced from t = 0", traced_from_start},
                                   {"shared-topology", shared},
                                   {"NIC", nic},
                                   {"multi-entry", multi_entry},
                                   {"multi-core", multi_core}});
  }
};

struct FuzzCase : FuzzInstance {
  double noise = 0.0;
  bool with_faults = false;
  FaultPlan plan;
  bool check_reductions = false;  // sampled: verify inactive-config reductions
};

FuzzCase build_case(std::uint64_t base_seed, std::uint64_t index) {
  std::mt19937_64 rng(mix(base_seed ^ mix(index)));
  FuzzCase c;
  draw_instance(rng, 60, 12, c);
  if (uniform(rng, 0.0, 1.0) < 0.5) c.noise = uniform(rng, 0.05, 0.5);
  c.nic = uniform(rng, 0.0, 1.0) < 0.25;
  c.sim_seed = rng();

  c.with_faults = uniform(rng, 0.0, 1.0) < 0.25;
  if (c.with_faults) {
    // Scale the fault window to this instance's actual noise-free makespan so
    // events land inside the run instead of all firing after it ends.
    const Schedule calm = simulate(c.graph, c.network, c.placement, kLat);
    FaultPlanParams fp;
    fp.horizon = std::max(1e-6, calm.makespan * uniform(rng, 0.1, 1.2));
    fp.crashes = uniform_int(rng, 0, 2);
    fp.leaves = uniform_int(rng, 0, 1);
    fp.slowdowns = uniform_int(rng, 0, 2);
    fp.link_degrades = uniform_int(rng, 0, 2);
    fp.joins = uniform_int(rng, 0, 1);
    fp.slowdown_factor = uniform(rng, 1.5, 5.0);
    fp.link_factor = uniform(rng, 1.5, 6.0);
    fp.transient_fraction = uniform(rng, 0.0, 1.0);
    c.plan = generate_fault_plan(c.network, fp, rng);
    // The generator draws no extra link delay; give some degrades one so the
    // fold of overlapping degrades into trace segments sees delays too.
    for (FaultEvent& e : c.plan.events) {
      if (e.kind == FaultKind::kLinkDegrade && uniform(rng, 0.0, 1.0) < 0.5) {
        e.delay_add = uniform(rng, 0.0, 2.0);
      }
    }
    // Snap some events onto instants of the noise-free run (a task or a
    // transfer finishing) so incidents and condition changes tie exactly with
    // sim events; a transient effect keeps its duration.
    const int nv = c.graph.num_tasks();
    const int ne = c.graph.num_edges();
    for (FaultEvent& e : c.plan.events) {
      if (uniform(rng, 0.0, 1.0) >= 0.3) continue;
      const double t = ne > 0 && uniform(rng, 0.0, 1.0) < 0.5
                           ? calm.edge_finish[uniform_int(rng, 0, ne - 1)]
                           : calm.tasks[uniform_int(rng, 0, nv - 1)].finish;
      e.until = t + (e.until - e.time);
      e.time = t;
    }
  }

  // Dynamic conditions. Fault cases never get a trace (simulate_with_faults
  // rejects one); shared links and NIC links compose with everything.
  const int m = c.network.num_devices();
  if (m >= 2 && uniform(rng, 0.0, 1.0) < 0.35) draw_topology(rng, true, c);
  if (c.nic) add_nic_links(c.shared, m);
  if (!c.with_faults && m >= 2 && uniform(rng, 0.0, 1.0) < 0.4) {
    // Breakpoints scaled to the instance's noise-free span.
    const double span =
        std::max(1e-6, simulate(c.graph, c.network, c.placement, kLat).makespan);
    draw_trace(rng, span, 3, c);
  }
  c.check_reductions = uniform(rng, 0.0, 1.0) < 0.125;

  char shape[200];
  std::snprintf(shape, sizeof(shape),
                "tasks=%d edges=%d extra_entries=%d devices=%d noise=%.3f nic=%d "
                "faults=%zu trace=%d shared=%d",
                c.graph.num_tasks(), c.graph.num_edges(), c.extra_entries,
                c.network.num_devices(), c.noise, c.nic ? 1 : 0, c.plan.events.size(),
                c.with_trace ? 1 : 0, c.with_shared ? 1 : 0);
  c.shape = shape;
  return c;
}

/// Exact comparison; returns a human-readable mismatch description or "".
std::string diff_schedules(const Schedule& a, const Schedule& b, const char* what) {
  char buf[160];
  if (a.tasks.size() != b.tasks.size() || a.edge_start.size() != b.edge_start.size()) {
    std::snprintf(buf, sizeof(buf), "%s: shape mismatch", what);
    return buf;
  }
  for (std::size_t v = 0; v < a.tasks.size(); ++v) {
    if (a.tasks[v].start != b.tasks[v].start || a.tasks[v].finish != b.tasks[v].finish) {
      std::snprintf(buf, sizeof(buf),
                    "%s: task %zu differs ([%.17g, %.17g] vs [%.17g, %.17g])", what, v,
                    a.tasks[v].start, a.tasks[v].finish, b.tasks[v].start,
                    b.tasks[v].finish);
      return buf;
    }
  }
  for (std::size_t e = 0; e < a.edge_start.size(); ++e) {
    if (a.edge_start[e] != b.edge_start[e] || a.edge_finish[e] != b.edge_finish[e]) {
      std::snprintf(buf, sizeof(buf),
                    "%s: edge %zu differs ([%.17g, %.17g] vs [%.17g, %.17g])", what, e,
                    a.edge_start[e], a.edge_finish[e], b.edge_start[e],
                    b.edge_finish[e]);
      return buf;
    }
  }
  if (a.makespan != b.makespan) {
    std::snprintf(buf, sizeof(buf), "%s: makespan differs (%.17g vs %.17g)", what,
                  a.makespan, b.makespan);
    return buf;
  }
  return "";
}

/// The inactive-config reductions: configurations that encode "no dynamics"
/// explicitly (an empty trace, a shared map with no physical links) must
/// leave the output bitwise identical to the plain run.
std::string check_reductions(const FuzzCase& c) {
  const int m = c.network.num_devices();
  SharedLinkMap no_links = build_shared_link_map(m, {});  // NIC links only
  if (c.nic) add_nic_links(no_links, m);
  SimOptions base;
  base.noise = c.noise;
  if (c.nic) base.shared_links = &no_links;
  std::mt19937_64 r0(c.sim_seed), r1(c.sim_seed), r2(c.sim_seed);
  base.rng = &r0;
  const Schedule plain = simulate(c.graph, c.network, c.placement, kLat, base);

  NetworkTrace empty_trace;
  SimOptions opt = base;
  opt.trace = &empty_trace;
  opt.rng = &r1;
  const Schedule et = simulate(c.graph, c.network, c.placement, kLat, opt);
  if (auto d = diff_schedules(plain, et, "empty-trace reduction"); !d.empty()) return d;

  opt = base;
  opt.shared_links = &no_links;
  opt.rng = &r2;
  const Schedule ns = simulate(c.graph, c.network, c.placement, kLat, opt);
  if (auto d = diff_schedules(plain, ns, "no-links shared reduction"); !d.empty()) {
    return d;
  }
  return "";
}

/// The first field in which two delta states differ, or "" when bitwise equal.
std::string diff_delta_states(const DeltaSimState& a, const DeltaSimState& b,
                              const char* what) {
  char buf[160];
  const auto diff_vec = [&](const std::vector<long>& x, const std::vector<long>& y,
                            const char* field) {
    if (x.size() != y.size()) {
      std::snprintf(buf, sizeof(buf), "%s: state %s has %zu entries, not %zu", what,
                    field, x.size(), y.size());
      return false;
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] != y[i]) {
        std::snprintf(buf, sizeof(buf), "%s: state %s[%zu] differs (%ld vs %ld)", what,
                      field, i, x[i], y[i]);
        return false;
      }
    }
    return true;
  };
  if (a.valid != b.valid) {
    std::snprintf(buf, sizeof(buf), "%s: state validity differs", what);
    return buf;
  }
  if (!diff_vec(a.runnable_order, b.runnable_order, "runnable_order") ||
      !diff_vec(a.task_event_seq, b.task_event_seq, "task_event_seq") ||
      !diff_vec(a.edge_event_seq, b.edge_event_seq, "edge_event_seq")) {
    return buf;
  }
  if (a.total_seq != b.total_seq || a.next_runnable_rank != b.next_runnable_rank) {
    std::snprintf(buf, sizeof(buf), "%s: state counters differ (%ld/%ld vs %ld/%ld)", what,
                  a.total_seq, a.next_runnable_rank, b.total_seq, b.next_runnable_rank);
    return buf;
  }
  return "";
}

/// --delta outcome counts: replays by class, fallbacks by cause.
struct DeltaCounts {
  std::uint64_t replayed = 0, from_new_arrival = 0, inputs_sent = 0;
  std::uint64_t invalid_state = 0, entry_task = 0, prefix_gate = 0;

  void add(DeltaSimResult r, const DeltaSimReport& rep) {
    if (r == DeltaSimResult::kReplayed) {
      ++replayed;
      from_new_arrival += rep.dirty_from_new_arrival ? 1 : 0;
      inputs_sent += rep.inputs_sent_before_t0 ? 1 : 0;
      return;
    }
    ++(rep.fallback == DeltaFallback::kInvalidState ? invalid_state
       : rep.fallback == DeltaFallback::kEntryTask  ? entry_task
                                                    : prefix_gate);
  }
};

/// --delta: a chain of random one-task moves re-simulated incrementally must
/// stay bitwise identical to a from-scratch recording simulation at every
/// step, schedule and refreshed DeltaSimState alike, so the chain keeps
/// going. simulate_delta replays the static model only, so the chain runs the
/// case's graph, network and placement without its noise, trace or link
/// contention.
std::string check_delta(const FuzzCase& c, std::uint64_t case_index, DeltaCounts& counts) {
  SimWorkspace ws, ws_ref;
  Schedule prev, cur, ref;
  DeltaSimState prev_ds, cur_ds, ref_ds;
  Placement p = c.placement;
  simulate_into(c.graph, c.network, p, kLat, ws, prev, prev_ds);

  const auto feasible = feasible_sets(c.graph, c.network);
  std::mt19937_64 move_rng(mix(c.sim_seed ^ mix(case_index)));
  const int moves = uniform_int(move_rng, 1, 6);
  for (int s = 0; s < moves; ++s) {
    const int v = uniform_int(move_rng, 0, c.graph.num_tasks() - 1);
    const auto& devs = feasible[v];
    const int d = devs[uniform_int(move_rng, 0, static_cast<int>(devs.size()) - 1)];
    p.set(v, d);

    DeltaSimReport rep;
    const DeltaSimResult dr = simulate_delta(c.graph, c.network, p, v, kLat, ws, prev,
                                             prev_ds, cur, cur_ds, &rep);
    counts.add(dr, rep);
    simulate_into(c.graph, c.network, p, kLat, ws_ref, ref, ref_ds);
    char what[64];
    std::snprintf(what, sizeof(what), "delta move %d (task %d -> dev %d, %s)", s, v, d,
                  dr == DeltaSimResult::kReplayed ? "replayed" : "fell back");
    if (auto diff = diff_schedules(cur, ref, what); !diff.empty()) return diff;
    if (auto diff = diff_delta_states(cur_ds, ref_ds, what); !diff.empty()) return diff;
    std::swap(prev, cur);
    std::swap(prev_ds, cur_ds);
  }
  return "";
}

/// Runs all checks for one case; returns "" on success.
std::string run_case(const FuzzCase& c, SimWorkspace& ws, Schedule& reused) {
  SimOptions opt;
  opt.noise = c.noise;
  if (c.with_trace) opt.trace = &c.trace;
  opt.shared_links = c.links();
  std::mt19937_64 rng_a(c.sim_seed), rng_b(c.sim_seed), rng_c(c.sim_seed),
      rng_d(c.sim_seed);

  if (!c.with_faults) {
    opt.rng = &rng_a;
    const Schedule prod = simulate(c.graph, c.network, c.placement, kLat, opt);
    opt.rng = &rng_b;
    simulate_into(c.graph, c.network, c.placement, kLat, ws, reused, opt);
    opt.rng = &rng_c;
    const Schedule ref = oracle_simulate(c.graph, c.network, c.placement, kLat, opt);

    if (auto d = diff_schedules(prod, reused, "simulate vs simulate_into"); !d.empty()) {
      return d;
    }
    if (auto d = diff_schedules(prod, ref, "simulate vs oracle"); !d.empty()) return d;

    const CheckOptions check{
        .noise = c.noise, .trace = opt.trace, .shared_links = opt.shared_links};
    const InvariantReport report =
        check_schedule(c.graph, c.network, c.placement, kLat, prod, check);
    if (!report.ok()) return "invariant violation:\n" + report.summary();

    // The fault path with an empty plan is a strict superset of simulate()
    // (it rejects traces, so compare without them).
    if (!c.with_trace) {
      opt.rng = &rng_d;
      const FaultSimResult empty =
          simulate_with_faults(c.graph, c.network, c.placement, kLat, FaultPlan{}, opt);
      if (!empty.completed()) return "empty fault plan stranded tasks";
      if (auto d = diff_schedules(prod, empty.schedule, "simulate vs empty fault plan");
          !d.empty()) {
        return d;
      }
    }
    if (c.check_reductions) {
      if (auto d = check_reductions(c); !d.empty()) return d;
    }
    return "";
  }

  // Fault cases: replay determinism, agreement with the fault oracle, and
  // fault-aware invariants.
  opt.rng = &rng_a;
  const FaultSimResult r1 =
      simulate_with_faults(c.graph, c.network, c.placement, kLat, c.plan, opt);
  opt.rng = &rng_b;
  const FaultSimResult r2 =
      simulate_with_faults(c.graph, c.network, c.placement, kLat, c.plan, opt);
  opt.rng = &rng_c;
  const FaultSimResult ref =
      oracle_simulate_with_faults(c.graph, c.network, c.placement, kLat, c.plan, opt);
  if (auto d = diff_schedules(r1.schedule, r2.schedule, "fault replay"); !d.empty()) {
    return d;
  }
  if (r1.stranded != r2.stranded || r1.failed_devices != r2.failed_devices) {
    return "fault replay: stranded/failed bookkeeping differs";
  }
  if (auto d = diff_schedules(r1.schedule, ref.schedule, "faults vs fault oracle");
      !d.empty()) {
    return d;
  }
  if (r1.stranded != ref.stranded || r1.failed_devices != ref.failed_devices) {
    return "faults vs fault oracle: stranded/failed bookkeeping differs";
  }
  const CheckOptions check{.noise = c.noise, .shared_links = opt.shared_links};
  const InvariantReport report =
      check_fault_result(c.graph, c.network, c.placement, kLat, r1, check);
  if (!report.ok()) return "fault invariant violation:\n" + report.summary();
  if (c.check_reductions) {
    if (auto d = check_reductions(c); !d.empty()) return d;
  }
  return "";
}

// ---------------------------------------------------------------------------
// --parse mode: the text parsers must survive arbitrary mutation.

/// One random mutation of a wire string. Mutations are cheap and local; the
/// guarantee under test is "no crash", not coverage of every grammar branch.
std::string mutate(const std::string& wire, std::mt19937_64& rng) {
  std::string m = wire;
  if (m.empty()) return m;
  switch (uniform_int(rng, 0, 5)) {
    case 0:  // truncate (a torn write)
      m.resize(static_cast<std::size_t>(
          uniform_int(rng, 0, static_cast<int>(m.size()) - 1)));
      break;
    case 1: {  // flip one byte
      const auto at = static_cast<std::size_t>(
          uniform_int(rng, 0, static_cast<int>(m.size()) - 1));
      m[at] = static_cast<char>(m[at] ^ (1 << uniform_int(rng, 0, 7)));
      break;
    }
    case 2: {  // replace a token with garbage
      static const char* kGarbage[] = {"nan",  "inf",     "-1e999", "banana",
                                       "1e-",  "0x7f",    "",       "9999999999999999999",
                                       "-2",   "\x01\x02"};
      const auto at = static_cast<std::size_t>(
          uniform_int(rng, 0, static_cast<int>(m.size()) - 1));
      const std::size_t sp = m.find(' ', at);
      const std::size_t end = sp == std::string::npos ? m.size() : sp;
      m = m.substr(0, at) + kGarbage[uniform_int(rng, 0, 9)] + m.substr(end);
      break;
    }
    case 3: {  // delete one line
      std::vector<std::string> lines;
      std::istringstream in(m);
      for (std::string l; std::getline(in, l);) lines.push_back(l);
      if (lines.empty()) break;
      lines.erase(lines.begin() +
                  uniform_int(rng, 0, static_cast<int>(lines.size()) - 1));
      std::string out;
      for (const auto& l : lines) out += l + "\n";
      m = out;
      break;
    }
    case 4: {  // duplicate one line
      std::vector<std::string> lines;
      std::istringstream in(m);
      for (std::string l; std::getline(in, l);) lines.push_back(l);
      if (lines.empty()) break;
      const int at = uniform_int(rng, 0, static_cast<int>(lines.size()) - 1);
      lines.insert(lines.begin() + at, lines[at]);
      std::string out;
      for (const auto& l : lines) out += l + "\n";
      m = out;
      break;
    }
    case 5: {  // insert random bytes
      const auto at = static_cast<std::size_t>(
          uniform_int(rng, 0, static_cast<int>(m.size()) - 1));
      std::string junk;
      for (int k = uniform_int(rng, 1, 8); k > 0; --k) {
        junk.push_back(static_cast<char>(uniform_int(rng, 1, 255)));
      }
      m.insert(at, junk);
      break;
    }
  }
  return m;
}

/// Builds a valid request/response pair for one parse-fuzz case.
serve::PlacementRequest build_request(std::mt19937_64& rng) {
  TaskGraphParams gp;
  gp.num_tasks = uniform_int(rng, 1, 20);
  gp.p_connect = uniform(rng, 0.0, 0.5);
  gp.num_hw_kinds = uniform_int(rng, 1, 3);
  gp.p_task_requires = uniform(rng, 0.0, 0.4);
  NetworkParams np;
  np.num_devices = uniform_int(rng, 1, 6);
  np.num_hw_kinds = gp.num_hw_kinds;
  np.p_hw_support = uniform(rng, 0.5, 1.0);

  serve::PlacementRequest req;
  req.graph = generate_task_graph(gp, rng);
  req.network = generate_device_network(np, rng);
  ensure_feasible(req.graph, req.network, rng);
  req.id = "case-" + std::to_string(uniform_int(rng, 0, 1 << 20));
  req.deadline_ms = uniform(rng, 0.0, 1.0) < 0.5 ? 0.0 : uniform(rng, 0.1, 500.0);
  req.steps = uniform_int(rng, 0, 200);
  req.seed = rng();
  if (uniform(rng, 0.0, 1.0) < 0.5) {
    req.initial = random_placement(req.graph, req.network, rng);
  }
  return req;
}

/// Round-trips the unmutated wire and hammers mutants; "" on success.
std::string run_parse_case(std::uint64_t base_seed, std::uint64_t index) {
  std::mt19937_64 rng(mix(base_seed ^ mix(index)));
  const serve::PlacementRequest req = build_request(rng);

  std::ostringstream os;
  serve::write_request(os, req);
  const std::string wire = os.str();

  // Writer -> reader -> writer must be a byte identity (no drift between the
  // two sides of the protocol).
  {
    std::istringstream is(wire);
    serve::PlacementRequest back;
    if (!serve::read_request(is, back)) return "round-trip: clean EOF on valid request";
    std::ostringstream os2;
    serve::write_request(os2, back);
    if (os2.str() != wire) return "round-trip: request re-serialization differs";
  }

  serve::PlacementResponse resp;
  resp.id = req.id;
  resp.status = serve::ResponseStatus::kOk;
  resp.mode = serve::ServeMode::kPolicy;
  resp.makespan = uniform(rng, 0.0, 1e6);
  resp.steps = uniform_int(rng, 0, 500);
  resp.queue_ms = uniform(rng, 0.0, 10.0);
  resp.search_ms = uniform(rng, 0.0, 100.0);
  if (uniform(rng, 0.0, 1.0) < 0.7) {
    resp.placement =
        req.initial.has_value() ? *req.initial : Placement(req.graph.num_tasks());
  }
  std::ostringstream ros;
  serve::write_response(ros, resp);
  const std::string rwire = ros.str();
  {
    std::istringstream is(rwire);
    serve::PlacementResponse back;
    if (!serve::read_response(is, back)) return "round-trip: clean EOF on valid response";
    std::ostringstream ros2;
    serve::write_response(ros2, back);
    if (ros2.str() != rwire) return "round-trip: response re-serialization differs";
  }

  const std::string framed = giph::util::wrap_checked("giph-params", wire);
  {
    const std::string payload = giph::util::unwrap_checked(framed, "giph-params", "fuzz");
    if (payload != wire) return "checked-frame: unwrap(wrap(x)) != x";
  }

  // Mutants: every parser entry point must return or throw, never crash.
  for (int k = 0; k < 8; ++k) {
    const std::string mreq = mutate(wire, rng);
    try {
      std::istringstream is(mreq);
      serve::PlacementRequest r2;
      (void)serve::read_request(is, r2);
    } catch (const std::exception&) {
      // expected for most mutants; the guarantee is "throws, never crashes"
    }
    const std::string mresp = mutate(rwire, rng);
    try {
      std::istringstream is(mresp);
      serve::PlacementResponse r2;
      (void)serve::read_response(is, r2);
    } catch (const std::exception&) {
    }
    const std::string mframe = mutate(framed, rng);
    try {
      (void)giph::util::unwrap_checked(mframe, "giph-params", "fuzz");
    } catch (const std::exception&) {
    }
  }
  return "";
}

int run_parse_mode(std::uint64_t cases, std::uint64_t seed, std::uint64_t start,
                   bool verbose) {
  for (std::uint64_t i = start; i < start + cases; ++i) {
    std::string failure;
    try {
      failure = run_parse_case(seed, i);
    } catch (const std::exception& e) {
      failure = std::string("exception escaped the harness: ") + e.what();
    }
    if (!failure.empty()) {
      std::fprintf(stderr,
                   "FUZZ FAILURE (parse) at case %llu (base seed %llu)\n  %s\n"
                   "  reproduce: giph_fuzz --parse --seed %llu --start %llu --cases 1\n",
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(seed), failure.c_str(),
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i));
      return 1;
    }
    if (verbose && (i - start + 1) % 1000 == 0) {
      std::printf("giph_fuzz: %llu/%llu parse cases ok\n",
                  static_cast<unsigned long long>(i - start + 1),
                  static_cast<unsigned long long>(cases));
    }
  }
  std::printf(
      "giph_fuzz: %llu parse cases ok (seed %llu): request/response/frame "
      "round-trips are byte identities, no mutant crashed a parser\n",
      static_cast<unsigned long long>(cases), static_cast<unsigned long long>(seed));
  return 0;
}

// ---------------------------------------------------------------------------
// --hier mode: the scale tier (partition -> coarse place -> refine) must keep
// its invariants and agree bitwise with flat simulation.

/// Structural comparison of two gpNets; "" when identical.
std::string diff_gpnets(const GpNet& a, const GpNet& b) {
  if (a.node_task != b.node_task) return "sparse gpnet: node_task differs";
  if (a.node_device != b.node_device) return "sparse gpnet: node_device differs";
  if (a.is_pivot != b.is_pivot) return "sparse gpnet: is_pivot differs";
  if (a.options != b.options) return "sparse gpnet: per-task options differ";
  if (a.pivot_of_task != b.pivot_of_task) return "sparse gpnet: pivot_of_task differs";
  if (a.edge_task_edge != b.edge_task_edge) return "sparse gpnet: edge_task_edge differs";
  if (a.view.edges != b.view.edges) return "sparse gpnet: edge list differs";
  if (a.view.topo != b.view.topo) return "sparse gpnet: topological order differs";
  return "";
}

/// Per-case stats of the hier mode (for the summary line).
struct HierStats {
  std::uint64_t pinned_cases = 0;
  std::uint64_t forced_extra_clusters = 0;  ///< cases where cuts exceeded the target
  std::uint64_t refine_kept = 0;            ///< total moves kept across cases
};

std::string run_hier_case(std::uint64_t base_seed, std::uint64_t index, HierStats* hs) {
  std::mt19937_64 rng(mix(base_seed ^ mix(index)));
  TaskGraph g;
  DeviceNetwork n;
  draw_graph_and_network(rng, 60, 12, g, n);
  ensure_feasible(g, n, rng);

  // Pins exercise the partitioner's forced cuts. Each pin targets a device
  // the task can already run on, so the instance stays feasible.
  if (uniform(rng, 0.0, 1.0) < 0.4) {
    const auto sets = feasible_sets(g, n);
    bool pinned = false;
    for (int v = 0; v < g.num_tasks(); ++v) {
      if (uniform(rng, 0.0, 1.0) < 0.15) {
        g.task(v).pinned =
            sets[v][uniform_int(rng, 0, static_cast<int>(sets[v].size()) - 1)];
        pinned = true;
      }
    }
    if (pinned && hs) ++hs->pinned_cases;
  }

  const int nt = g.num_tasks();
  const int nd = n.num_devices();
  char buf[200];

  PartitionOptions popt;
  popt.num_clusters = uniform_int(rng, 1, nt + 2);
  popt.balance = uniform(rng, 1.0, 2.5);
  const GraphPartition part = partition_tasks(g, n, popt);
  const int nc = part.num_clusters();
  if (hs && nc > std::min(popt.num_clusters, nt)) ++hs->forced_extra_clusters;

  // Membership is an exact partition, member lists ascending and consistent.
  if (static_cast<int>(part.cluster_of.size()) != nt) {
    return "partition: cluster_of size mismatch";
  }
  if (static_cast<int>(part.members.size()) != nc) {
    return "partition: members size mismatch";
  }
  std::vector<int> seen(nt, 0);
  for (int c = 0; c < nc; ++c) {
    int prev = -1;
    for (int v : part.members[c]) {
      if (v < 0 || v >= nt) return "partition: member id out of range";
      if (v <= prev) return "partition: member list not ascending";
      prev = v;
      if (part.cluster_of[v] != c) return "partition: cluster_of disagrees with members";
      ++seen[v];
    }
  }
  for (int v = 0; v < nt; ++v) {
    if (seen[v] != 1) {
      std::snprintf(buf, sizeof(buf), "partition: task %d in %d clusters", v, seen[v]);
      return buf;
    }
  }
  if (!part.coarse.is_dag()) return "partition: coarse graph has a cycle";

  // Conservation: coarse compute matches, coarse + internal bytes match.
  if (std::abs(part.coarse.total_compute() - g.total_compute()) >
      1e-6 * std::max(1.0, g.total_compute())) {
    return "partition: compute not conserved";
  }
  if (std::abs(part.coarse.total_bytes() + part.internal_bytes - g.total_bytes()) >
      1e-6 * std::max(1.0, g.total_bytes())) {
    return "partition: bytes not conserved";
  }

  // The fine instance is feasible, so the forced cuts must have kept the
  // coarse one feasible too (feasible_sets throws otherwise).
  try {
    (void)feasible_sets(part.coarse, n);
  } catch (const std::exception& e) {
    return std::string("partition: coarse instance infeasible: ") + e.what();
  }

  // Determinism: a repeat run is identical.
  if (partition_tasks(g, n, popt).cluster_of != part.cluster_of) {
    return "partition: repeat run differs";
  }

  // Expanding any feasible coarse placement gives a feasible fine placement
  // that is constant on every cluster.
  {
    const Placement coarse = random_placement(part.coarse, n, rng);
    const Placement fine = expand_placement(part, coarse);
    if (!is_feasible(g, n, fine)) return "expand: infeasible fine placement";
    for (int v = 0; v < nt; ++v) {
      if (fine.device_of(v) != coarse.device_of(part.cluster_of[v])) {
        return "expand: task not on its cluster's device";
      }
    }
  }

  // Full hierarchical run: feasible result, monotone refinement, and the
  // reported objective must be BITWISE the flat simulation of the returned
  // placement (the cross-check that the tier never reports a makespan the
  // fine simulator would not reproduce).
  HierarchicalOptions hopt;
  hopt.partition = popt;
  hopt.coarse_steps_factor = uniform_int(rng, 0, 2);
  hopt.coarse_greedy = uniform(rng, 0.0, 1.0) < 0.5;
  hopt.refine_rounds = uniform_int(rng, 0, 2);
  hopt.refine_topk = uniform_int(rng, 1, 4);

  GiPHOptions aopt;
  aopt.embed_dim = 4;
  aopt.gpnet_topk = uniform(rng, 0.0, 1.0) < 0.5 ? 0 : uniform_int(rng, 1, nd);
  GiPHAgent agent(aopt);

  HierarchicalPlacer placer(g, n, kLat, hopt);
  HierarchicalStats st;
  std::mt19937_64 replay_rng = rng;  // replays the coarse stage below
  const Placement fine = placer.place(agent, rng, &st);
  if (hs) hs->refine_kept += st.refine_moves_kept;
  if (!is_feasible(g, n, fine)) return "hier: returned placement infeasible";
  if (st.refined_objective > st.expanded_objective) {
    std::snprintf(buf, sizeof(buf), "hier: refinement worsened (%.17g > %.17g)",
                  st.refined_objective, st.expanded_objective);
    return buf;
  }
  const double norm =
      placer.fine_normalizer() > 0.0 ? placer.fine_normalizer() : 1.0;
  const double flat = simulate(g, n, fine, kLat).makespan / norm;
  if (flat != st.refined_objective) {
    std::snprintf(buf, sizeof(buf),
                  "hier: reported objective %.17g != flat simulation %.17g",
                  st.refined_objective, flat);
    return buf;
  }
  if (placer.objective_of(fine) != st.refined_objective) {
    return "hier: objective_of differs from refine's report";
  }

  // Refinement of the same expansion, once more through refine() with the
  // process simulation counter read around it, and once through the
  // apply/revert reference: identical results, one simulation per try.
  {
    const Placement expanded = placer.expand(placer.place_clusters(agent, replay_rng));
    Placement tried = expanded;
    HierarchicalStats ts;
    const std::uint64_t sims0 = simulation_count();
    const double obj = placer.refine(tried, &ts);
    const std::uint64_t sims = simulation_count() - sims0;
    if (tried != fine || obj != st.refined_objective ||
        ts.refine_moves_tried != st.refine_moves_tried ||
        ts.refine_moves_kept != st.refine_moves_kept) {
      return "hier: refining the replayed expansion differs from place()";
    }
    if (sims != static_cast<std::uint64_t>(ts.refine_moves_tried) + 1) {
      std::snprintf(buf, sizeof(buf),
                    "refine: %llu simulations for %lld tries (want tries + 1)",
                    static_cast<unsigned long long>(sims),
                    static_cast<long long>(ts.refine_moves_tried));
      return buf;
    }
    Placement ref = expanded;
    HierarchicalStats rs;
    const double ref_obj = reference_refine(placer, g, n, kLat, ref, &rs);
    if (ref.assignments() != tried.assignments()) {
      return "refine: placement differs from the apply/revert reference";
    }
    if (std::memcmp(&ref_obj, &obj, sizeof obj) != 0) {
      std::snprintf(buf, sizeof(buf),
                    "refine: objective %.17g != reference %.17g", obj, ref_obj);
      return buf;
    }
    if (rs.refine_moves_tried != ts.refine_moves_tried ||
        rs.refine_moves_kept != ts.refine_moves_kept) {
      std::snprintf(buf, sizeof(buf),
                    "refine: %lld tried / %lld kept, reference %lld / %lld",
                    static_cast<long long>(ts.refine_moves_tried),
                    static_cast<long long>(ts.refine_moves_kept),
                    static_cast<long long>(rs.refine_moves_tried),
                    static_cast<long long>(rs.refine_moves_kept));
      return buf;
    }
  }

  // Sparse gpNet at k >= D is node-for-node the dense gpNet, and the subset
  // EST sweep reproduces the full sweep's rows bitwise.
  {
    const Schedule sched = simulate(g, n, fine, kLat);
    EstSweepWorkspace full_ws, sub_ws;
    est_sweep(sched, g, n, fine, kLat, full_ws);
    const auto feas = feasible_sets(g, n);
    const GpNet dense = build_gpnet(g, n, fine, feas);
    const GpNet sparse =
        build_gpnet_topk(g, n, fine, feas, nd + uniform_int(rng, 0, 3), full_ws.est);
    if (auto d = diff_gpnets(dense, sparse); !d.empty()) return d;

    const std::vector<int>& subset = part.members[uniform_int(rng, 0, nc - 1)];
    est_sweep_subset(sched, g, n, fine, kLat, subset, sub_ws);
    for (int v : subset) {
      for (int d = 0; d < nd; ++d) {
        const std::size_t at = static_cast<std::size_t>(v) * nd + d;
        if (full_ws.est[at] != sub_ws.est[at]) {
          std::snprintf(buf, sizeof(buf),
                        "subset est sweep: task %d device %d differs (%.17g vs %.17g)",
                        v, d, full_ws.est[at], sub_ws.est[at]);
          return buf;
        }
      }
    }
  }
  return "";
}

int run_hier_mode(std::uint64_t cases, std::uint64_t seed, std::uint64_t start,
                  bool verbose) {
  HierStats hs;
  for (std::uint64_t i = start; i < start + cases; ++i) {
    std::string failure;
    try {
      failure = run_hier_case(seed, i, &hs);
    } catch (const std::exception& e) {
      failure = std::string("exception escaped the harness: ") + e.what();
    }
    if (!failure.empty()) {
      std::fprintf(stderr,
                   "FUZZ FAILURE (hier) at case %llu (base seed %llu)\n  %s\n"
                   "  reproduce: giph_fuzz --hier --seed %llu --start %llu --cases 1\n",
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(seed), failure.c_str(),
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i));
      return 1;
    }
    if (verbose && (i - start + 1) % 1000 == 0) {
      std::printf("giph_fuzz: %llu/%llu hier cases ok\n",
                  static_cast<unsigned long long>(i - start + 1),
                  static_cast<unsigned long long>(cases));
    }
  }
  std::printf(
      "giph_fuzz: %llu hier cases ok (seed %llu, %llu with pins, %llu with forced "
      "extra clusters, %llu refine moves kept): partition invariants hold, "
      "hierarchical objectives match flat simulation bitwise, refine == "
      "apply/revert reference at one simulation per try, sparse gpNet (k >= D) "
      "== dense, subset EST sweep == full sweep\n",
      static_cast<unsigned long long>(cases), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(hs.pinned_cases),
      static_cast<unsigned long long>(hs.forced_extra_clusters),
      static_cast<unsigned long long>(hs.refine_kept));
  return 0;
}

// ---------------------------------------------------------------------------
// --stream mode: iterated-graph execution vs the independent streaming oracle.

struct StreamFuzzCase : FuzzInstance {
  StreamOptions opt;  ///< sim.rng left null; each replay installs its own
};

StreamFuzzCase build_stream_case(std::uint64_t base_seed, std::uint64_t index) {
  std::mt19937_64 rng(mix(base_seed ^ mix(index)));
  StreamFuzzCase c;
  draw_instance(rng, 40, 10, c);
  c.sim_seed = rng();

  // The interval is scaled to the one-shot makespan: below 1x the frames
  // pipeline (queueing across frame boundaries), above it they barely touch.
  const double span =
      std::max(1e-6, simulate(c.graph, c.network, c.placement, kLat).makespan);
  c.opt.frames = uniform_int(rng, 1, 12);
  c.opt.interval = span * uniform(rng, 0.05, 1.5);
  if (uniform(rng, 0.0, 1.0) < 0.3) c.opt.arrival_jitter = uniform(rng, 0.05, 0.8);
  if (uniform(rng, 0.0, 1.0) < 0.4) c.opt.sim.noise = uniform(rng, 0.05, 0.5);
  c.nic = uniform(rng, 0.0, 1.0) < 0.3;

  const int m = c.network.num_devices();
  if (m >= 2 && uniform(rng, 0.0, 1.0) < 0.3) draw_topology(rng, false, c);
  if (c.nic) add_nic_links(c.shared, m);
  if (m >= 2 && uniform(rng, 0.0, 1.0) < 0.3) {
    // Breakpoints spread over the whole stream so some land mid-pipeline in
    // later frames, not just inside frame 0.
    draw_trace(rng, span + c.opt.interval * (c.opt.frames - 1), 2, c);
  }

  char shape[220];
  std::snprintf(shape, sizeof(shape),
                "tasks=%d extra_entries=%d devices=%d frames=%d interval=%.3f "
                "jitter=%.3f noise=%.3f nic=%d trace=%d shared=%d",
                c.graph.num_tasks(), c.extra_entries, c.network.num_devices(),
                c.opt.frames, c.opt.interval, c.opt.arrival_jitter, c.opt.sim.noise,
                c.nic ? 1 : 0, c.with_trace ? 1 : 0, c.with_shared ? 1 : 0);
  c.shape = shape;
  return c;
}

/// Exact comparison of two StreamResults; "" when bitwise identical.
std::string diff_stream_results(const StreamResult& a, const StreamResult& b,
                                const char* what) {
  char buf[160];
  if (auto d = diff_schedules(a.schedule, b.schedule, what); !d.empty()) return d;
  if (a.frames != b.frames) {
    std::snprintf(buf, sizeof(buf), "%s: frames %d vs %d", what, a.frames, b.frames);
    return buf;
  }
  if (a.frame_arrival != b.frame_arrival) return std::string(what) + ": arrivals differ";
  if (a.frame_finish != b.frame_finish) return std::string(what) + ": finishes differ";
  if (a.frame_latency != b.frame_latency) return std::string(what) + ": latencies differ";
  if (a.throughput != b.throughput || a.p50_latency != b.p50_latency ||
      a.p99_latency != b.p99_latency || a.makespan != b.makespan) {
    std::snprintf(buf, sizeof(buf),
                  "%s: metrics differ (tp %.17g vs %.17g, p99 %.17g vs %.17g)", what,
                  a.throughput, b.throughput, a.p99_latency, b.p99_latency);
    return buf;
  }
  return "";
}

/// Runs all checks for one streaming case; returns "" on success.
std::string run_stream_case(const StreamFuzzCase& c, StreamWorkspace& ws,
                            StreamResult& reused) {
  StreamOptions opt = c.opt;
  if (c.with_trace) opt.sim.trace = &c.trace;
  opt.sim.shared_links = c.links();
  std::mt19937_64 rng_a(c.sim_seed), rng_b(c.sim_seed), rng_c(c.sim_seed),
      rng_d(c.sim_seed);

  opt.sim.rng = &rng_a;
  const StreamResult fast =
      simulate_streaming(c.graph, c.network, c.placement, kLat, opt);
  opt.sim.rng = &rng_b;
  simulate_streaming_into(c.graph, c.network, c.placement, kLat, ws, reused, opt);
  opt.sim.rng = &rng_c;
  const StreamResult ref =
      oracle_simulate_streaming(c.graph, c.network, c.placement, kLat, opt);

  if (auto d = diff_stream_results(fast, reused, "streaming vs reused workspace");
      !d.empty()) {
    return d;
  }
  if (auto d = diff_stream_results(fast, ref, "streaming vs oracle"); !d.empty()) {
    return d;
  }

  const InvariantReport report =
      check_stream_result(c.graph, c.network, c.placement, kLat, fast, opt);
  if (!report.ok()) return "stream invariant violation:\n" + report.summary();

  // F = 1 must be the one-shot simulator, bitwise (same draw sequence).
  if (c.opt.frames == 1) {
    SimOptions one = opt.sim;
    one.rng = &rng_d;
    const Schedule flat = simulate(c.graph, c.network, c.placement, kLat, one);
    if (auto d = diff_schedules(fast.schedule, flat, "F=1 reduction"); !d.empty()) {
      return d;
    }
  }
  return "";
}

int run_stream_mode(std::uint64_t cases, std::uint64_t seed, std::uint64_t start,
                    bool verbose) {
  StreamWorkspace ws;
  StreamResult reused;
  std::uint64_t pipelined = 0, jittered = 0, noisy = 0, single = 0;
  InstanceCounts counts;
  for (std::uint64_t i = start; i < start + cases; ++i) {
    StreamFuzzCase c;
    std::string failure;
    try {
      c = build_stream_case(seed, i);
      counts.add(c);
      jittered += c.opt.arrival_jitter > 0.0 ? 1 : 0;
      noisy += c.opt.sim.noise > 0.0 ? 1 : 0;
      single += c.opt.frames == 1 ? 1 : 0;
      failure = run_stream_case(c, ws, reused);
      if (failure.empty()) pipelined += c.opt.frames > 1 ? 1 : 0;
    } catch (const std::exception& e) {
      failure = std::string("exception: ") + e.what();
    }
    if (!failure.empty()) {
      std::fprintf(stderr,
                   "FUZZ FAILURE (stream) at case %llu (base seed %llu)\n  %s\n  %s\n"
                   "  reproduce: giph_fuzz --stream --seed %llu --start %llu --cases 1\n",
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(seed), c.shape.c_str(),
                   failure.c_str(), static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i));
      return 1;
    }
    if (verbose && (i - start + 1) % 1000 == 0) {
      std::printf("giph_fuzz: %llu/%llu stream cases ok\n",
                  static_cast<unsigned long long>(i - start + 1),
                  static_cast<unsigned long long>(cases));
    }
  }
  Coverage classes = {{"pipelined", pipelined},
                       {"jittered", jittered},
                       {"noisy", noisy},
                       {"single-frame", single}};
  counts.append_to(classes);
  bool covered = true;
  std::printf(
      "giph_fuzz: %llu stream cases ok (seed %llu, %s): simulate_streaming == reused "
      "workspace == streaming oracle, invariants hold, F=1 == simulate bitwise\n",
      static_cast<unsigned long long>(cases), static_cast<unsigned long long>(seed),
      format_coverage(classes, cases, covered).c_str());
  return covered ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t cases = 1000;
  std::uint64_t seed = 20260806;
  std::uint64_t start = 0;
  bool verbose = false;
  bool delta = false;
  bool parse = false;
  bool hier = false;
  bool stream = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A whole unsigned integer >= `min`: "1e4" or "abc" is a usage error
    // naming the flag and the value, never a prefix or zero.
    auto next = [&](std::uint64_t min) -> std::uint64_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "giph_fuzz: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      const char* text = argv[++i];
      errno = 0;
      const std::uint64_t x = std::strtoull(text, nullptr, 10);
      if (*text == '\0' || std::strspn(text, "0123456789") != std::strlen(text) ||
          errno == ERANGE || x < min) {
        std::fprintf(stderr, "giph_fuzz: %s: expected an integer >= %llu, got '%s'\n",
                     arg.c_str(), static_cast<unsigned long long>(min), text);
        std::exit(2);
      }
      return x;
    };
    if (arg == "--cases") {
      cases = next(1);
    } else if (arg == "--seed") {
      seed = next(0);
    } else if (arg == "--start") {
      start = next(0);
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--delta") {
      delta = true;
    } else if (arg == "--parse") {
      parse = true;
    } else if (arg == "--hier") {
      hier = true;
    } else if (arg == "--stream") {
      stream = true;
    } else {
      std::fprintf(stderr,
                   "usage: giph_fuzz [--cases N] [--seed S] [--start K] [--delta] "
                   "[--parse] [--hier] [--stream] [--verbose]\n");
      return 2;
    }
  }
  if (parse) return run_parse_mode(cases, seed, start, verbose);
  if (hier) return run_hier_mode(cases, seed, start, verbose);
  if (stream) return run_stream_mode(cases, seed, start, verbose);

  SimWorkspace ws;
  Schedule reused;
  std::uint64_t fault_cases = 0, noisy_cases = 0;
  DeltaCounts delta_counts;
  InstanceCounts counts;
  for (std::uint64_t i = start; i < start + cases; ++i) {
    FuzzCase c;
    std::string failure;
    try {
      c = build_case(seed, i);
      counts.add(c);
      fault_cases += c.with_faults ? 1 : 0;
      noisy_cases += c.noise > 0.0 ? 1 : 0;
      failure = run_case(c, ws, reused);
      // Fault cases are checked against the fault oracle instead; every
      // other case gets the static one-move chain on its instance.
      if (failure.empty() && delta && !c.with_faults) {
        failure = check_delta(c, i, delta_counts);
      }
    } catch (const std::exception& e) {
      failure = std::string("exception: ") + e.what();
    }
    if (!failure.empty()) {
      std::fprintf(stderr,
                   "FUZZ FAILURE at case %llu (base seed %llu)\n  %s\n  %s\n"
                   "  reproduce: giph_fuzz --seed %llu --start %llu --cases 1\n",
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(seed), c.shape.c_str(),
                   failure.c_str(), static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i));
      return 1;
    }
    if (verbose && (i - start + 1) % 1000 == 0) {
      std::printf("giph_fuzz: %llu/%llu cases ok\n",
                  static_cast<unsigned long long>(i - start + 1),
                  static_cast<unsigned long long>(cases));
    }
  }
  Coverage classes = {{"noisy", noisy_cases}, {"with fault plans", fault_cases}};
  counts.append_to(classes);
  bool covered = true;
  std::printf(
      "giph_fuzz: %llu cases ok (seed %llu, %s): simulate == simulate_into == oracle, "
      "faults == fault oracle, all invariants hold\n",
      static_cast<unsigned long long>(cases), static_cast<unsigned long long>(seed),
      format_coverage(classes, cases, covered).c_str());
  if (delta) {
    const DeltaCounts& dc = delta_counts;
    const Coverage moves = {{"replayed incrementally", dc.replayed},
                            {"with the dirty time from the new arrival", dc.from_new_arrival},
                            {"with inputs all sent before T0", dc.inputs_sent},
                            {"entry-task fallbacks", dc.entry_task},
                            {"prefix-gate fallbacks", dc.prefix_gate}};
    // A chain always starts from a recorded state, so no move meets an
    // invalid one; the count is printed, not required.
    std::printf(
        "giph_fuzz: delta moves ok (%s, %llu invalid-state fallbacks), schedule and "
        "state bitwise equal to a from-scratch recording simulation\n",
        format_coverage(moves, cases, covered).c_str(),
        static_cast<unsigned long long>(dc.invalid_state));
  }
  return covered ? 0 : 1;
}
