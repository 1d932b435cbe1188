#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "verify/replicated_instance.hpp"

namespace giph {
namespace {

constexpr double kUnset = -1.0;

/// Collects violations with printf-free formatting; every check funnels
/// through fail() so the report carries all findings, not just the first.
class Collector {
 public:
  explicit Collector(InvariantReport& report) : report_(report) {}

  template <typename... Parts>
  void fail(const Parts&... parts) {
    std::ostringstream out;
    out.precision(17);
    (out << ... << parts);
    report_.violations.push_back(out.str());
  }

 private:
  InvariantReport& report_;
};

bool completed(const Schedule& s, int v) { return s.tasks[v].finish >= 0.0; }

/// The checker's own nearest-rank percentile (no interpolation), mirrored
/// from the documented StreamResult convention, not from the implementation.
double checker_nearest_rank(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= xs.size()) idx = xs.size() - 1;
  return xs[idx];
}

}  // namespace

std::string InvariantReport::summary() const {
  std::string out;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out += '\n';
    out += violations[i];
  }
  return out;
}

InvariantReport check_schedule(const TaskGraph& g, const DeviceNetwork& n,
                               const Placement& p, const LatencyModel& lat,
                               const Schedule& sched, const CheckOptions& opt) {
  InvariantReport report;
  Collector c(report);
  const int nv = g.num_tasks();
  const int ne = g.num_edges();

  // Dynamic-network context: an empty trace is no trace. traced_pair() says
  // whether a directed device pair has time-varying conditions (its durations
  // are then unpredictable from the latency model alone); routed_pair() says
  // whether the pair's transfers queue on contended links.
  const NetworkTrace* trace =
      (opt.trace != nullptr && !opt.trace->empty()) ? opt.trace : nullptr;
  auto traced_pair = [&](int k, int l) {
    if (trace == nullptr) return false;
    for (const LinkSchedule& ls : trace->links) {
      if (ls.src == k && ls.dst == l && !ls.segments.empty()) return true;
    }
    return false;
  };
  auto routed_pair = [&](int k, int l) {
    return opt.shared_links != nullptr && k != l &&
           !opt.shared_links->links_on(k, l).empty();
  };

  if (static_cast<int>(sched.tasks.size()) != nv ||
      static_cast<int>(sched.edge_start.size()) != ne ||
      static_cast<int>(sched.edge_finish.size()) != ne || p.num_tasks() != nv ||
      (opt.release_times != nullptr &&
       static_cast<int>(opt.release_times->size()) != nv)) {
    c.fail("shape: schedule/placement/release arrays do not match the graph (",
           sched.tasks.size(), " tasks, ", sched.edge_start.size(), " edges for a ", nv,
           "-task ", ne, "-edge graph)");
    return report;  // everything below indexes by task/edge id
  }
  if (opt.shared_links != nullptr) {
    try {
      validate_shared_link_map(*opt.shared_links, n.num_devices(), "check_schedule");
    } catch (const std::invalid_argument& e) {
      c.fail("shape: ", e.what());
      return report;  // the contention checks below index by route and link id
    }
  }

  // Placement feasibility: in-range device honoring pin and hw mask.
  for (int v = 0; v < nv; ++v) {
    const int d = p.device_of(v);
    if (d < 0 || d >= n.num_devices()) {
      c.fail("placement: task ", v, " on out-of-range device ", d);
      return report;
    }
    const Task& t = g.task(v);
    if (t.pinned >= 0 && d != t.pinned) {
      c.fail("placement: task ", v, " pinned to device ", t.pinned, " but placed on ", d);
    } else if (t.pinned < 0 &&
               (t.requires_hw & n.device(d).supports_hw) != t.requires_hw) {
      c.fail("placement: task ", v, " requires hw ", t.requires_hw,
             " unsupported by device ", d);
    }
  }

  // Per-task sanity. In complete mode every task ran; in incomplete (fault)
  // mode unfinished tasks must be fully unset, never half-recorded.
  for (int v = 0; v < nv; ++v) {
    const TaskTiming& t = sched.tasks[v];
    if (!completed(sched, v)) {
      if (!opt.allow_incomplete) {
        c.fail("task ", v, ": never completed (finish ", t.finish, ")");
      } else if (t.start != kUnset || t.finish != kUnset) {
        c.fail("task ", v, ": stranded but has recorded times (start ", t.start,
               ", finish ", t.finish, ")");
      }
      continue;
    }
    if (!std::isfinite(t.start) || !std::isfinite(t.finish)) {
      c.fail("task ", v, ": non-finite times (start ", t.start, ", finish ", t.finish,
             ")");
    }
    if (t.start < 0.0) c.fail("task ", v, ": starts before t=0 (", t.start, ")");
    if (t.finish < t.start) {
      c.fail("task ", v, ": finish ", t.finish, " precedes start ", t.start);
    }
  }
  if (!report.ok()) return report;  // timing checks below assume sane values

  // Task durations against the latency model. Noise-free runs must reproduce
  // finish == start + w with the exact same rounding; noisy runs must land in
  // the draw interval (addition is monotone, so the bounds are exact too).
  if (!opt.allow_incomplete) {
    for (int v = 0; v < nv; ++v) {
      const TaskTiming& t = sched.tasks[v];
      const double w = lat.compute_time(g, n, v, p.device_of(v));
      if (opt.noise <= 0.0) {
        if (t.finish != t.start + w) {
          c.fail("task ", v, ": duration mismatch, finish ", t.finish, " != start ",
                 t.start, " + expected ", w);
        }
      } else if (t.finish < t.start + w * (1.0 - opt.noise) ||
                 t.finish > t.start + w * (1.0 + opt.noise)) {
        c.fail("task ", v, ": noisy duration outside [", w * (1.0 - opt.noise), ", ",
               w * (1.0 + opt.noise), "]: start ", t.start, " finish ", t.finish);
      }
    }
  }

  // Edge checks: a transfer exists iff its producer finished, starts at the
  // producer's finish (or later, behind a busy link, for routed sends under
  // contention), and its consumer waits for it.
  for (int e = 0; e < ne; ++e) {
    const DataLink& link = g.edge(e);
    const double es = sched.edge_start[e];
    const double ef = sched.edge_finish[e];
    if (!completed(sched, link.src)) {
      if (es != kUnset || ef != kUnset) {
        c.fail("edge ", e, ": producer ", link.src, " never finished but transfer has ",
               "times (start ", es, ", finish ", ef, ")");
      }
      continue;
    }
    if (es < 0.0 || ef < 0.0 || !std::isfinite(es) || !std::isfinite(ef)) {
      c.fail("edge ", e, ": producer finished but transfer times invalid (start ", es,
             ", finish ", ef, ")");
      continue;
    }
    if (ef < es) c.fail("edge ", e, ": finish ", ef, " precedes start ", es);
    const double src_finish = sched.tasks[link.src].finish;
    const int du = p.device_of(link.src);
    const int dv = p.device_of(link.dst);
    if (routed_pair(du, dv) ? es < src_finish : es != src_finish) {
      c.fail("edge ", e, ": transfer starts at ", es, " but producer ", link.src,
             " finishes at ", src_finish);
    }
    if (!opt.allow_incomplete && !traced_pair(du, dv)) {
      const double comm = lat.comm_time(g, n, e, du, dv);
      if (opt.noise <= 0.0) {
        if (ef != es + comm) {
          c.fail("edge ", e, ": duration mismatch, finish ", ef, " != start ", es,
                 " + expected ", comm);
        }
      } else if (ef < es + comm * (1.0 - opt.noise) ||
                 ef > es + comm * (1.0 + opt.noise)) {
        c.fail("edge ", e, ": noisy duration outside bounds: start ", es, " finish ", ef,
               " expected ", comm, " sigma ", opt.noise);
      }
    }
    if (completed(sched, link.dst) && sched.tasks[link.dst].start < ef) {
      c.fail("edge ", e, ": consumer ", link.dst, " starts at ",
             sched.tasks[link.dst].start, " before its input arrives at ", ef);
    }
  }

  // Ready time of each completed task: the arrival of its last input, but no
  // earlier than its release time (entry tasks are ready at release, 0 by
  // default). Unset when an input never arrived, which is itself a violation
  // for a completed task.
  std::vector<double> ready(nv, kUnset);
  for (int v = 0; v < nv; ++v) {
    if (!completed(sched, v)) continue;
    double r = opt.release_times != nullptr ? (*opt.release_times)[v] : 0.0;
    bool known = true;
    for (int e : g.in_edges(v)) {
      if (sched.edge_finish[e] < 0.0) {
        known = false;
        break;
      }
      r = std::max(r, sched.edge_finish[e]);
    }
    if (!known) {
      c.fail("task ", v, ": completed but an input transfer never arrived");
      continue;
    }
    ready[v] = r;
    if (sched.tasks[v].start < r) {
      c.fail("task ", v, ": starts at ", sched.tasks[v].start,
             " before its last input arrives at ", r);
    }
  }

  // Per-device checks: capacity, FIFO service order, and start-time
  // provenance.
  for (int d = 0; d < n.num_devices(); ++d) {
    std::vector<int> on_device;
    for (int v = 0; v < nv; ++v) {
      if (p.device_of(v) == d && completed(sched, v)) on_device.push_back(v);
    }

    // Capacity: sweep starts (+1) and finishes (-1); a finish and a start at
    // the same instant do not overlap, so finishes sort first.
    std::vector<std::pair<double, int>> sweep;
    for (int v : on_device) {
      sweep.emplace_back(sched.tasks[v].start, +1);
      sweep.emplace_back(sched.tasks[v].finish, -1);
    }
    std::sort(sweep.begin(), sweep.end());
    int concurrent = 0, peak = 0;
    for (const auto& [time, delta] : sweep) {
      concurrent += delta;
      peak = std::max(peak, concurrent);
    }
    if (peak > n.device(d).cores) {
      c.fail("device ", d, ": runs ", peak, " tasks concurrently but has ",
             n.device(d).cores, " core(s)");
    }

    // FIFO: a strictly earlier ready time must not start later.
    for (int u : on_device) {
      for (int v : on_device) {
        if (u == v || ready[u] == kUnset || ready[v] == kUnset) continue;
        if (ready[u] < ready[v] && sched.tasks[u].start > sched.tasks[v].start) {
          c.fail("device ", d, ": FIFO violated, task ", u, " ready at ", ready[u],
                 " starts at ", sched.tasks[u].start, " after task ", v, " (ready ",
                 ready[v], ", start ", sched.tasks[v].start, ")");
        }
      }
    }

    // Work conservation (complete runs): a task starts the moment it became
    // ready, or the moment a task on its device finished and freed a core.
    if (!opt.allow_incomplete) {
      for (int v : on_device) {
        const double s = sched.tasks[v].start;
        if (s == ready[v]) continue;
        bool freed = false;
        for (int u : on_device) {
          if (u != v && sched.tasks[u].finish == s) {
            freed = true;
            break;
          }
        }
        if (!freed) {
          c.fail("device ", d, ": task ", v, " starts at ", s, " though it was ready at ",
                 ready[v], " and no task finished then (idle device, waiting task)");
        }
      }
    }
  }

  // Link contention: transfers whose routes cross a common link (physical, or
  // a sender's NIC) must not overlap on it (each reserves its whole route for
  // its whole duration). Only checkable for benign runs without a trace: a
  // link degrade or trace breakpoint firing mid-transfer stretches transfers
  // past their dispatch-time reservations.
  if (opt.shared_links != nullptr && !opt.allow_incomplete && trace == nullptr) {
    for (int li = 0; li < opt.shared_links->num_links; ++li) {
      std::vector<std::pair<double, double>> uses;
      for (int e = 0; e < ne; ++e) {
        if (sched.edge_start[e] < 0.0) continue;
        const int du = p.device_of(g.edge(e).src);
        const int dv = p.device_of(g.edge(e).dst);
        if (du == dv) continue;
        const std::vector<int>& route = opt.shared_links->links_on(du, dv);
        if (std::find(route.begin(), route.end(), li) == route.end()) continue;
        uses.emplace_back(sched.edge_start[e], sched.edge_finish[e]);
      }
      std::sort(uses.begin(), uses.end());
      for (std::size_t i = 1; i < uses.size(); ++i) {
        if (uses[i].first < uses[i - 1].second) {
          c.fail("link ", li, ": transfer [", uses[i].first, ", ", uses[i].second,
                 ") overlaps [", uses[i - 1].first, ", ", uses[i - 1].second, ")");
        }
      }
    }
  }

  // Makespan spans (completed) tasks exactly.
  double first_start = std::numeric_limits<double>::infinity();
  double last_finish = -std::numeric_limits<double>::infinity();
  for (int v = 0; v < nv; ++v) {
    if (!completed(sched, v)) continue;
    first_start = std::min(first_start, sched.tasks[v].start);
    last_finish = std::max(last_finish, sched.tasks[v].finish);
  }
  const double expected_makespan =
      last_finish >= first_start ? last_finish - first_start : 0.0;
  if (sched.makespan != expected_makespan) {
    c.fail("makespan ", sched.makespan, " != max finish - min start = ",
           expected_makespan);
  }

  return report;
}

InvariantReport check_fault_result(const TaskGraph& g, const DeviceNetwork& n,
                                   const Placement& p, const LatencyModel& lat,
                                   const FaultSimResult& result,
                                   const CheckOptions& opt) {
  CheckOptions relaxed = opt;
  relaxed.allow_incomplete = true;
  InvariantReport report = check_schedule(g, n, p, lat, result.schedule, relaxed);
  Collector c(report);
  if (static_cast<int>(result.schedule.tasks.size()) != g.num_tasks()) {
    return report;  // shape violation already recorded; the rest indexes by id
  }

  // `stranded` must list exactly the unfinished tasks, ascending.
  std::vector<int> unfinished;
  for (int v = 0; v < g.num_tasks(); ++v) {
    if (result.schedule.tasks[v].finish < 0.0) unfinished.push_back(v);
  }
  if (result.stranded != unfinished) {
    c.fail("stranded list does not match unfinished tasks (", result.stranded.size(),
           " listed, ", unfinished.size(), " unfinished)");
  }

  // A completed task implies completed parents with delivered transfers
  // (check_schedule already flags missing arrivals; flag the parent relation
  // explicitly for a better message).
  for (int e = 0; e < g.num_edges(); ++e) {
    const DataLink& link = g.edge(e);
    if (result.schedule.tasks[link.dst].finish >= 0.0 &&
        result.schedule.tasks[link.src].finish < 0.0) {
      c.fail("task ", link.dst, " completed though parent ", link.src, " is stranded");
    }
  }

  return report;
}

InvariantReport check_stream_result(const TaskGraph& g, const DeviceNetwork& n,
                                    const Placement& p, const LatencyModel& lat,
                                    const StreamResult& result,
                                    const StreamOptions& opt) {
  InvariantReport report;
  Collector c(report);
  const int nv = g.num_tasks();
  const int ne = g.num_edges();
  const int frames = result.frames;

  if (frames != opt.frames) {
    c.fail("stream: simulated ", frames, " frames, options ask for ", opt.frames);
    return report;
  }
  if (static_cast<int>(result.frame_arrival.size()) != frames ||
      static_cast<int>(result.frame_finish.size()) != frames ||
      static_cast<int>(result.frame_latency.size()) != frames ||
      static_cast<int>(result.schedule.tasks.size()) != frames * nv ||
      static_cast<int>(result.schedule.edge_start.size()) != frames * ne ||
      static_cast<int>(result.schedule.edge_finish.size()) != frames * ne) {
    c.fail("stream: result arrays do not match ", frames, " frames of a ", nv,
           "-task ", ne, "-edge graph");
    return report;  // everything below indexes per frame
  }

  // Arrivals: frame 0 at t = 0, then one interval (or jittered gap) apart.
  if (result.frame_arrival[0] != 0.0) {
    c.fail("stream: frame 0 arrives at ", result.frame_arrival[0], ", not 0");
  }
  if (opt.arrival_jitter <= 0.0) {
    double expected = 0.0;
    for (int f = 1; f < frames; ++f) {
      expected += opt.interval;
      if (result.frame_arrival[f] != expected) {
        c.fail("stream: frame ", f, " arrives at ", result.frame_arrival[f],
               " but frames enter every ", opt.interval, " (expected ", expected, ")");
      }
    }
  } else {
    const double lo = opt.interval * (1.0 - opt.arrival_jitter);
    const double hi = opt.interval * (1.0 + opt.arrival_jitter);
    // The recovered gap carries one subtraction of rounding; allow for it.
    const double slack = 1e-9 * std::max(1.0, hi);
    for (int f = 1; f < frames; ++f) {
      const double gap = result.frame_arrival[f] - result.frame_arrival[f - 1];
      if (gap < lo - slack || gap > hi + slack) {
        c.fail("stream: frame ", f, " gap ", gap, " outside jitter bounds [", lo,
               ", ", hi, "]");
      }
    }
  }

  // Rebuild the frame-replicated instance from first principles and hold the
  // schedule to every one-shot invariant over it, with per-task release =
  // frame arrival feeding the ready-time computation.
  TaskGraph rep;
  Placement rep_p;
  verify_detail::replicate_frames(g, p, frames, rep, rep_p);
  std::vector<double> release(static_cast<std::size_t>(frames) * nv, 0.0);
  for (int f = 0; f < frames; ++f) {
    for (int v = 0; v < nv; ++v) {
      release[static_cast<std::size_t>(f) * nv + v] = result.frame_arrival[f];
    }
  }
  const verify_detail::ReplicatedLatencyModel rep_lat(lat, g);
  CheckOptions co;
  co.noise = opt.sim.noise;
  co.trace = opt.sim.trace;
  co.shared_links = opt.sim.shared_links;
  co.release_times = &release;
  const InvariantReport inner = check_schedule(rep, n, rep_p, rep_lat, result.schedule, co);
  report.violations.insert(report.violations.end(), inner.violations.begin(),
                           inner.violations.end());

  // Per-frame finish/latency bookkeeping, bitwise.
  const bool traced = opt.sim.trace != nullptr && !opt.sim.trace->empty();
  for (int f = 0; f < frames; ++f) {
    double fin = result.frame_arrival[f];
    for (int v = 0; v < nv; ++v) {
      fin = std::max(fin, result.schedule.tasks[f * nv + v].finish);
    }
    if (result.frame_finish[f] != fin) {
      c.fail("stream: frame ", f, " finish ", result.frame_finish[f],
             " != max task finish ", fin);
    }
    if (result.frame_latency[f] != result.frame_finish[f] - result.frame_arrival[f]) {
      c.fail("stream: frame ", f, " latency ", result.frame_latency[f],
             " != finish - arrival = ",
             result.frame_finish[f] - result.frame_arrival[f]);
    }
    // Monotone frame completion: identical frames entering later cannot
    // finish earlier — unless noise re-draws durations per frame or a trace
    // changes link conditions between dispatches.
    if (f > 0 && opt.sim.noise <= 0.0 && !traced &&
        result.frame_finish[f] < result.frame_finish[f - 1]) {
      c.fail("stream: frame ", f, " finishes at ", result.frame_finish[f],
             " before frame ", f - 1, " at ", result.frame_finish[f - 1]);
    }
  }

  // Throughput identity and percentile conventions, bitwise.
  double expected_throughput;
  if (frames > 1) {
    const double span = result.frame_finish[frames - 1] - result.frame_finish[0];
    expected_throughput = span > 0.0 ? frames / span
                                     : std::numeric_limits<double>::infinity();
  } else {
    expected_throughput = result.frame_latency[0] > 0.0
                              ? 1.0 / result.frame_latency[0]
                              : std::numeric_limits<double>::infinity();
  }
  if (result.throughput != expected_throughput) {
    c.fail("stream: throughput ", result.throughput,
           " != frames / (last finish - first finish) = ", expected_throughput);
  }
  if (result.p50_latency != checker_nearest_rank(result.frame_latency, 0.50)) {
    c.fail("stream: p50 ", result.p50_latency, " is not the nearest-rank median");
  }
  if (result.p99_latency != checker_nearest_rank(result.frame_latency, 0.99)) {
    c.fail("stream: p99 ", result.p99_latency,
           " is not the nearest-rank 99th percentile");
  }
  if (result.makespan != result.schedule.makespan) {
    c.fail("stream: makespan ", result.makespan, " != schedule makespan ",
           result.schedule.makespan);
  }

  return report;
}

}  // namespace giph
