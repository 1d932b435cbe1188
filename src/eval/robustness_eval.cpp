#include "eval/robustness_eval.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "heft/heft.hpp"
#include "util/parallel_for.hpp"

namespace giph::eval {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// True when remapping leaves every pinned device id unchanged, i.e. the
/// remapped graph is structurally identical to `g` and an existing search
/// environment can be rebased instead of rebuilt.
bool pins_unchanged(const TaskGraph& g, const std::vector<int>& old_to_new) {
  for (int v = 0; v < g.num_tasks(); ++v) {
    const int pin = g.task(v).pinned;
    if (pin < 0) continue;
    if (pin >= static_cast<int>(old_to_new.size()) || old_to_new[pin] != pin) return false;
  }
  return true;
}

/// Patches every unplaced task (its device died) onto its fastest feasible
/// device of the post-fault network, in topological order. Deterministic.
/// Returns false when some task has no feasible device left.
bool patch_damaged(const TaskGraph& g, const DeviceNetwork& n, const LatencyModel& lat,
                   Placement& p) {
  for (int v : g.topological_order()) {
    if (p.device_of(v) >= 0) continue;
    int best = -1;
    double best_w = kInf;
    for (int d : feasible_devices(g, n, v)) {
      const double w = lat.compute_time(g, n, v, d);
      if (w < best_w) {
        best_w = w;
        best = d;
      }
    }
    if (best < 0) return false;
    p.set(v, best);
  }
  return true;
}

int count_moves(const Placement& before_remapped, const Placement& after) {
  int moves = 0;
  for (int v = 0; v < after.num_tasks(); ++v) {
    if (before_remapped.device_of(v) != after.device_of(v)) ++moves;
  }
  return moves;
}

/// One churn epoch compacted to its surviving devices: the network the
/// placers actually see, the universe <-> compact id maps, the pin-remapped
/// graph, and whether the epoch can host the graph at all. The only place a
/// network is compacted.
struct CompactEpoch {
  DeviceNetwork net;
  std::vector<int> old_to_new;
  std::vector<int> new_to_old;
  TaskGraph remapped_g;
  bool can_rebase = true;  ///< pins keep their ids under the compaction
  bool hosts = false;
};

CompactEpoch compact_epoch(const TaskGraph& g, const DeviceNetwork& universe,
                           const std::vector<char>& up) {
  CompactEpoch c;
  const int m = universe.num_devices();
  c.old_to_new.assign(m, -1);
  for (int k = 0; k < m; ++k) {
    if (!up[k]) continue;
    c.old_to_new[k] = c.net.add_device(universe.device(k));
    c.new_to_old.push_back(k);
  }
  for (int a = 0; a < static_cast<int>(c.new_to_old.size()); ++a) {
    for (int b = 0; b < static_cast<int>(c.new_to_old.size()); ++b) {
      if (a == b) continue;
      c.net.set_link(a, b, universe.bandwidth(c.new_to_old[a], c.new_to_old[b]),
                     universe.delay(c.new_to_old[a], c.new_to_old[b]));
    }
  }
  c.remapped_g = remap_pinned(g, c.old_to_new);
  c.can_rebase = pins_unchanged(g, c.old_to_new);
  c.hosts = c.net.num_devices() > 0;
  if (c.hosts) {
    try {
      (void)feasible_sets(c.remapped_g, c.net);
    } catch (const std::runtime_error&) {
      c.hosts = false;
    }
  }
  return c;
}

void mark_unrecoverable(ChurnCell& cell) {
  cell.recoverable = false;
  cell.makespan_before = kInf;
  cell.makespan_after = kInf;
}

void summarize_row(ChurnRow& row) {
  double sum = 0.0;
  int finite = 0;
  long step_sum = 0;
  for (std::size_t t = 0; t < row.cells.size(); ++t) {
    const ChurnCell& cell = row.cells[t];
    if (cell.recoverable && cell.makespan_after < kInf) {
      sum += cell.makespan_after;
      ++finite;
    }
    row.total_stranded += cell.stranded;
    if (t >= 1 && cell.stranded > 0) {
      ++row.disruptions;
      step_sum += cell.repair_steps;
    }
  }
  row.mean_makespan = finite > 0 ? sum / finite : kInf;
  row.mean_recovery_steps =
      row.disruptions > 0 ? static_cast<double>(step_sum) / row.disruptions : 0.0;
}

/// The inherited universe placement mapped onto an epoch; cell.stranded is
/// filled with the tasks whose device is gone.
Placement inherit(const Placement& universe_p, const CompactEpoch& c, ChurnCell& cell) {
  Placement p = remap_placement(universe_p, c.old_to_new);
  for (int v = 0; v < p.num_tasks(); ++v) {
    if (p.device_of(v) < 0) ++cell.stranded;
  }
  return p;
}

/// A placement on an epoch's compact ids, in universe ids.
Placement to_universe(const Placement& p, const CompactEpoch& c) {
  Placement out(p.num_tasks());
  for (int v = 0; v < p.num_tasks(); ++v) out.set(v, c.new_to_old[p.device_of(v)]);
  return out;
}

/// A HEFT reference row. "HEFT" reschedules all |V| tasks every epoch - what
/// adapting by brute force costs. "static" (`frozen`) keeps the first
/// hostable epoch's schedule forever - what not adapting costs.
ChurnRow heft_row(const char* name, bool frozen, const TaskGraph& g,
                  const std::vector<CompactEpoch>& eps, const LatencyModel& lat) {
  ChurnRow row;
  row.placer = name;
  row.cells.resize(eps.size());
  const Placement* held = nullptr;  // the latest cell's placement
  for (std::size_t t = 0; t < eps.size(); ++t) {
    const CompactEpoch& c = eps[t];
    ChurnCell& cell = row.cells[t];
    if (!c.hosts) {
      mark_unrecoverable(cell);
      continue;
    }
    if (frozen && held != nullptr) {
      const Placement p = inherit(*held, c, cell);
      cell.makespan_before = cell.makespan_after =
          cell.stranded == 0 ? makespan(c.remapped_g, c.net, p, lat) : kInf;
      cell.placement = *held;
      continue;
    }
    const Placement p = heft_schedule(c.remapped_g, c.net, lat).placement;
    cell.makespan_after = makespan(c.remapped_g, c.net, p, lat);
    cell.repair_steps = g.num_tasks();
    if (held == nullptr) {
      // Epoch 0 starts from this schedule, and so does the static row at any
      // epoch; HEFT's later first epoch inherits nothing.
      cell.makespan_before = t == 0 || frozen ? cell.makespan_after : kInf;
    } else {
      const Placement damaged = inherit(*held, c, cell);
      cell.makespan_before =
          cell.stranded == 0 ? makespan(c.remapped_g, c.net, damaged, lat) : kInf;
      cell.moved = count_moves(damaged, p);
    }
    cell.placement = to_universe(p, c);
    held = &cell.placement;
  }
  summarize_row(row);
  return row;
}

/// The churn protocol's settings, every budget resolved by the entry point.
struct CoreOptions {
  std::uint64_t seed = 1;
  int baseline_budget = 0;  ///< search steps of the first placement
  int repair_budget = 0;    ///< epochs with stranded tasks; 0 = max(2, 2 * stranded)
  int drift_budget = 0;     ///< epochs with nothing stranded
  int threads = 1;
  bool static_row = true;   ///< append the frozen epoch-0 HEFT row
};

/// The churn protocol over compacted epochs: one row per non-null placer,
/// then the "static" row (when asked for) and "HEFT". It validates nothing,
/// so an epoch may have no device up; it is then unrecoverable.
std::vector<ChurnRow> run_churn(
    const TaskGraph& g, const std::vector<CompactEpoch>& eps, const LatencyModel& lat,
    const std::vector<std::pair<std::string, SearchPolicy*>>& placers,
    const CoreOptions& opt) {
  const int T = static_cast<int>(eps.size());
  bool all_rebase = true;
  for (const CompactEpoch& c : eps) all_rebase = all_rebase && c.can_rebase;

  // Search-policy rows, computed independently (own policy object, RNG, and
  // environment chain) and collected in placer order: the rows are the same
  // for every thread count. Policies must be distinct objects - they carry
  // per-episode search state.
  std::vector<int> active;
  for (std::size_t i = 0; i < placers.size(); ++i) {
    if (placers[i].second != nullptr) active.push_back(static_cast<int>(i));
  }
  std::vector<ChurnRow> rows(active.size());
  util::parallel_for(static_cast<int>(active.size()), opt.threads, [&](int ri) {
    const auto& [name, policy] = placers[active[ri]];
    ChurnRow row;
    row.placer = name;
    row.cells.resize(T);
    std::mt19937_64 rng(opt.seed);
    const Placement* held = nullptr;  // the latest cell's placement
    std::optional<PlacementSearchEnv> env;

    for (int t = 0; t < T; ++t) {
      const CompactEpoch& c = eps[t];
      ChurnCell& cell = row.cells[t];
      if (!c.hosts) {
        mark_unrecoverable(cell);
        continue;  // carry the previous placement into the next epoch
      }
      const TaskGraph& eg = all_rebase ? g : c.remapped_g;
      if (held == nullptr) {
        // First hostable epoch (normally epoch 0): seeded fresh placement
        // plus the baseline budget.
        const Placement initial = random_placement(eg, c.net, rng);
        cell.makespan_before = t == 0 ? makespan(eg, c.net, initial, lat) : kInf;
        env.emplace(eg, c.net, lat, makespan_objective(lat), initial);
        run_search(*policy, *env, opt.baseline_budget, rng);
        cell.repair_steps = opt.baseline_budget;
      } else {
        const Placement damaged = inherit(*held, c, cell);
        cell.makespan_before =
            cell.stranded == 0 ? makespan(eg, c.net, damaged, lat) : kInf;
        Placement patched = damaged;
        if (!patch_damaged(eg, c.net, lat, patched)) {
          mark_unrecoverable(cell);
          continue;
        }
        const int budget =
            cell.stranded > 0
                ? (opt.repair_budget > 0 ? opt.repair_budget
                                         : std::max(2, 2 * cell.stranded))
                : opt.drift_budget;
        // Resume the same environment from the patched placement when no pin
        // ever changes id (the warm start the GiPH story needs); rebuild
        // otherwise.
        if (all_rebase) {
          env->rebase(c.net, patched);
        } else {
          env.emplace(eg, c.net, lat, makespan_objective(lat), patched);
        }
        run_search(*policy, *env, budget, rng);
        cell.repair_steps = budget;
        cell.moved = count_moves(damaged, env->best_placement());
      }
      cell.makespan_after = env->best_objective();
      cell.placement = to_universe(env->best_placement(), c);
      held = &cell.placement;
    }
    summarize_row(row);
    rows[ri] = std::move(row);
  });

  if (opt.static_row) rows.push_back(heft_row("static", true, g, eps, lat));
  rows.push_back(heft_row("HEFT", false, g, eps, lat));
  return rows;
}

}  // namespace

RobustnessReport evaluate_robustness(
    const TaskGraph& g, const DeviceNetwork& n, const LatencyModel& lat,
    const FaultPlan& plan,
    const std::vector<std::pair<std::string, SearchPolicy*>>& placers,
    const RobustnessOptions& opt) {
  // The plan as a two-epoch churn script over a universe that also holds the
  // joined devices: epoch 0 is the base network with those devices down,
  // epoch 1 the network after every event.
  const PostFaultNetwork after = post_fault_network(n, plan);  // validates the plan
  FaultPlan joins;
  std::copy_if(plan.events.begin(), plan.events.end(), std::back_inserter(joins.events),
               [](const FaultEvent& e) { return e.kind == FaultKind::kDeviceJoin; });
  PostFaultNetwork before = post_fault_network(n, joins);
  std::fill(before.up.begin() + n.num_devices(), before.up.end(), char(0));
  const std::vector<CompactEpoch> eps{compact_epoch(g, before.network, before.up),
                                      compact_epoch(g, after.network, after.up)};
  // Epoch 0 is n itself: when n cannot host g, throw naming the task.
  if (!eps[0].hosts) (void)feasible_sets(g, n);

  const int nv = g.num_tasks();
  CoreOptions core;
  core.seed = opt.seed;
  core.baseline_budget = opt.baseline_steps_factor * nv;
  core.repair_budget = opt.repair_budget;
  core.drift_budget = opt.repair_budget > 0 ? opt.repair_budget : 2;  // max(2, 2 * 0)
  core.threads = opt.threads;
  core.static_row = false;

  RobustnessReport report;
  report.faults = plan.events;
  std::stable_sort(report.faults.begin(), report.faults.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  for (const ChurnRow& churned : run_churn(g, eps, lat, placers, core)) {
    const ChurnCell& pre = churned.cells[0];
    const ChurnCell& post = churned.cells[1];
    RepairOutcome row;
    row.placer = churned.placer;
    row.recoverable = post.recoverable;
    row.fault_free_makespan = pre.makespan_after;
    // Base device ids are universe ids, so the epoch-0 placement replays on n.
    const FaultSimResult faulted = simulate_with_faults(g, n, pre.placement, lat, plan);
    row.faulted_makespan = faulted.completed() ? faulted.schedule.makespan : kInf;
    row.stranded_tasks = static_cast<int>(faulted.stranded.size());
    row.recovery_makespan = post.makespan_after;
    row.degradation_ratio = row.fault_free_makespan > 0.0
                                ? row.recovery_makespan / row.fault_free_makespan
                                : kInf;
    row.tasks_moved = post.moved;
    row.repair_steps = post.repair_steps;
    row.repair_fraction = nv > 0 ? static_cast<double>(row.repair_steps) / nv : 0.0;
    report.rows.push_back(std::move(row));
  }
  return report;
}

void validate_churn_script(const ChurnScript& script) {
  if (script.epochs.empty()) {
    throw std::invalid_argument("churn script: no epochs");
  }
  const int m = script.epochs.front().network.num_devices();
  double prev_time = -kInf;
  for (std::size_t t = 0; t < script.epochs.size(); ++t) {
    const ChurnEpoch& e = script.epochs[t];
    const std::string where = "churn script epoch " + std::to_string(t) + ": ";
    if (!std::isfinite(e.time)) {
      throw std::invalid_argument(where + "time must be finite");
    }
    if (e.time < prev_time) {
      throw std::invalid_argument(where + "time " + std::to_string(e.time) +
                                  " precedes epoch " + std::to_string(t - 1));
    }
    prev_time = e.time;
    if (e.network.num_devices() != m) {
      throw std::invalid_argument(
          where + "universe changed size (" + std::to_string(e.network.num_devices()) +
          " devices, epoch 0 has " + std::to_string(m) +
          "); model churn with the up mask, not by resizing the network");
    }
    if (static_cast<int>(e.up.size()) != m) {
      throw std::invalid_argument(where + "up mask has " + std::to_string(e.up.size()) +
                                  " entries for " + std::to_string(m) + " devices");
    }
    if (std::find(e.up.begin(), e.up.end(), char(1)) == e.up.end()) {
      throw std::invalid_argument(where + "no device is up");
    }
  }
}

ChurnReport evaluate_churn(
    const TaskGraph& g, const ChurnScript& script, const LatencyModel& lat,
    const std::vector<std::pair<std::string, SearchPolicy*>>& placers,
    const ChurnOptions& opt) {
  validate_churn_script(script);
  // Compact every epoch once, up front; the epochs outlive every environment
  // rebased onto them (rebase() keeps a pointer to the network).
  std::vector<CompactEpoch> eps;
  eps.reserve(script.epochs.size());
  for (const ChurnEpoch& e : script.epochs) {
    eps.push_back(compact_epoch(g, e.network, e.up));
  }

  const int nv = g.num_tasks();
  CoreOptions core;
  core.seed = opt.seed;
  core.baseline_budget = std::max(2, opt.baseline_steps_factor * nv);
  core.repair_budget = opt.repair_budget;
  core.drift_budget = opt.drift_budget > 0 ? opt.drift_budget : std::max(2, nv / 2);
  core.threads = opt.threads;
  ChurnReport report;
  report.num_epochs = static_cast<int>(eps.size());
  report.rows = run_churn(g, eps, lat, placers, core);
  return report;
}

std::string format_churn_report(const ChurnReport& report) {
  std::ostringstream out;
  char line[256];
  out << "makespan over time (one column per placer; * = stranded tasks that "
         "epoch, x = unrecoverable):\n";
  std::snprintf(line, sizeof(line), "%-7s", "epoch");
  out << line;
  for (const ChurnRow& r : report.rows) {
    std::snprintf(line, sizeof(line), " %14s", r.placer.c_str());
    out << line;
  }
  out << "\n";
  for (int t = 0; t < report.num_epochs; ++t) {
    std::snprintf(line, sizeof(line), "%-7d", t);
    out << line;
    for (const ChurnRow& r : report.rows) {
      const ChurnCell& cell = r.cells[t];
      char value[32];
      if (!cell.recoverable) {
        std::snprintf(value, sizeof(value), "%13s", "x");
      } else if (cell.makespan_after == kInf) {
        std::snprintf(value, sizeof(value), "%13s", "stranded");
      } else {
        std::snprintf(value, sizeof(value), "%13.4g", cell.makespan_after);
      }
      std::snprintf(line, sizeof(line), " %s%c", value, cell.stranded > 0 ? '*' : ' ');
      out << line;
    }
    out << "\n";
  }
  out << "\n";
  std::snprintf(line, sizeof(line), "%-16s %13s %11s %9s %15s\n", "placer",
                "mean makespan", "disruptions", "stranded", "recovery steps");
  out << line;
  for (const ChurnRow& r : report.rows) {
    char mean[32];
    if (r.mean_makespan == kInf) {
      std::snprintf(mean, sizeof(mean), "%13s", "-");
    } else {
      std::snprintf(mean, sizeof(mean), "%13.4g", r.mean_makespan);
    }
    std::snprintf(line, sizeof(line), "%-16s %s %11d %9d %15.1f\n", r.placer.c_str(),
                  mean, r.disruptions, r.total_stranded, r.mean_recovery_steps);
    out << line;
  }
  return out.str();
}

std::string format_report(const RobustnessReport& report) {
  std::ostringstream out;
  out << "injected faults:\n";
  if (report.faults.empty()) out << "  (none)\n";
  for (const FaultEvent& e : report.faults) out << "  " << describe(e) << "\n";
  out << "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-16s %12s %12s %9s %12s %8s %7s %7s\n", "placer",
                "fault-free", "faulted", "stranded", "recovery", "degrade", "moved",
                "repair");
  out << line;
  const auto num_or = [](double x, const char* word, char* buf, std::size_t size) {
    if (x == std::numeric_limits<double>::infinity()) {
      std::snprintf(buf, size, "%12s", word);
    } else {
      std::snprintf(buf, size, "%12.4g", x);
    }
    return buf;
  };
  for (const RepairOutcome& r : report.rows) {
    char faulted[32], recovery[32];
    num_or(r.faulted_makespan, "stranded", faulted, sizeof(faulted));
    num_or(r.recovery_makespan, "unrecoverable", recovery, sizeof(recovery));
    if (!r.recoverable) {
      std::snprintf(line, sizeof(line), "%-16s %12.4g %s %9d %s\n", r.placer.c_str(),
                    r.fault_free_makespan, faulted, r.stranded_tasks, recovery);
    } else {
      std::snprintf(line, sizeof(line), "%-16s %12.4g %s %9d %s %7.2fx %7d %6d\n",
                    r.placer.c_str(), r.fault_free_makespan, faulted, r.stranded_tasks,
                    recovery, r.degradation_ratio, r.tasks_moved, r.repair_steps);
    }
    out << line;
  }
  return out.str();
}

}  // namespace giph::eval
