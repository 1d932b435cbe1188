#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/sim_engine.hpp"

namespace giph {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }

/// Error prefix naming the event so the caller can find and fix it:
/// "fault plan event 3 (crash of device 9 at t=30): ...".
[[noreturn]] void reject_event(const FaultEvent& e, std::size_t index,
                               const std::string& what) {
  std::ostringstream out;
  out << "fault plan event " << index << " (" << describe(e) << "): " << what;
  throw std::invalid_argument(out.str());
}

}  // namespace

void validate_fault_plan(const FaultPlan& plan, const DeviceNetwork& n) {
  // Device ids may reference devices added by earlier (time-ordered) joins.
  int devices = n.num_devices();
  std::vector<std::size_t> by_time(plan.events.size());
  for (std::size_t i = 0; i < by_time.size(); ++i) by_time[i] = i;
  std::stable_sort(by_time.begin(), by_time.end(), [&](std::size_t a, std::size_t b) {
    return plan.events[a].time < plan.events[b].time;
  });
  auto device_range = [&](int d) {
    std::ostringstream out;
    out << "device id " << d << " out of range [0, " << devices
        << ") (network has " << n.num_devices() << " devices";
    if (devices > n.num_devices()) {
      out << " plus " << devices - n.num_devices() << " joined by earlier events";
    }
    out << ")";
    return out.str();
  };
  for (const std::size_t i : by_time) {
    const FaultEvent& e = plan.events[i];
    if (!finite_nonneg(e.time)) {
      reject_event(e, i, "event time must be finite and >= 0");
    }
    if (!(e.until >= e.time)) {  // also rejects a NaN end
      std::ostringstream out;
      out << "transient end until=" << e.until << " must not precede start time="
          << e.time;
      reject_event(e, i, out.str());
    }
    switch (e.kind) {
      case FaultKind::kDeviceCrash:
      case FaultKind::kDeviceLeave:
        if (e.device < 0 || e.device >= devices) {
          reject_event(e, i, device_range(e.device));
        }
        break;
      case FaultKind::kSlowdown:
        if (e.device < 0 || e.device >= devices) {
          reject_event(e, i, device_range(e.device));
        }
        if (!std::isfinite(e.factor) || e.factor <= 0.0) {
          reject_event(e, i, "slowdown factor must be finite and > 0, got " +
                                 std::to_string(e.factor));
        }
        break;
      case FaultKind::kLinkDegrade:
        if (e.link_src < 0 || e.link_src >= devices) {
          reject_event(e, i, "link source: " + device_range(e.link_src));
        }
        if (e.link_dst < 0 || e.link_dst >= devices) {
          reject_event(e, i, "link destination: " + device_range(e.link_dst));
        }
        if (e.link_src == e.link_dst) {
          reject_event(e, i, "a device has no link to itself");
        }
        if (!std::isfinite(e.factor) || e.factor <= 0.0) {
          reject_event(e, i, "link degrade factor must be finite and > 0, got " +
                                 std::to_string(e.factor));
        }
        if (!finite_nonneg(e.delay_add)) {
          reject_event(e, i, "link degrade delay_add must be finite and >= 0, got " +
                                 std::to_string(e.delay_add));
        }
        break;
      case FaultKind::kDeviceJoin:
        if (!std::isfinite(e.joined.speed) || e.joined.speed <= 0.0) {
          reject_event(e, i, "joined device speed must be finite and > 0, got " +
                                 std::to_string(e.joined.speed));
        }
        if (!std::isfinite(e.join_bandwidth) || e.join_bandwidth <= 0.0) {
          reject_event(e, i, "join link bandwidth must be finite and > 0, got " +
                                 std::to_string(e.join_bandwidth));
        }
        if (!finite_nonneg(e.join_delay)) {
          reject_event(e, i, "join link delay must be finite and >= 0, got " +
                                 std::to_string(e.join_delay));
        }
        ++devices;
        break;
    }
  }
}

FaultPlan generate_fault_plan(const DeviceNetwork& n, const FaultPlanParams& params,
                              std::mt19937_64& rng) {
  if (params.horizon <= 0.0 || !std::isfinite(params.horizon)) {
    throw std::invalid_argument("generate_fault_plan: horizon must be finite and > 0");
  }
  FaultPlan plan;
  const int m = n.num_devices();
  std::uniform_real_distribution<double> when(0.0, params.horizon);
  std::uniform_int_distribution<int> which(0, std::max(0, m - 1));

  // Crash / leave distinct devices, always sparing at least one so the
  // instance stays repairable.
  std::vector<int> ids(m);
  for (int i = 0; i < m; ++i) ids[i] = i;
  std::shuffle(ids.begin(), ids.end(), rng);
  const int removable = std::max(0, m - 1);
  const int crashes = std::min(params.crashes, removable);
  const int leaves = std::min(params.leaves, removable - crashes);
  for (int i = 0; i < crashes + leaves; ++i) {
    FaultEvent e;
    e.kind = i < crashes ? FaultKind::kDeviceCrash : FaultKind::kDeviceLeave;
    e.device = ids[i];
    e.time = when(rng);
    plan.events.push_back(e);
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < params.slowdowns && m > 0; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kSlowdown;
    e.device = which(rng);
    e.time = when(rng);
    e.factor = params.slowdown_factor;
    if (unit(rng) < params.transient_fraction) e.until = e.time + when(rng);
    plan.events.push_back(e);
  }
  for (int i = 0; i < params.link_degrades && m > 1; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLinkDegrade;
    e.link_src = which(rng);
    do {
      e.link_dst = which(rng);
    } while (e.link_dst == e.link_src);
    e.time = when(rng);
    e.factor = params.link_factor;
    if (unit(rng) < params.transient_fraction) e.until = e.time + when(rng);
    plan.events.push_back(e);
  }
  for (int i = 0; i < params.joins; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kDeviceJoin;
    e.time = when(rng);
    e.joined.speed = n.mean_speed() > 0.0 ? n.mean_speed() : 1.0;
    e.joined.name = "joined";
    e.join_bandwidth = n.mean_bandwidth() > 0.0 ? n.mean_bandwidth() : 1.0;
    e.join_delay = n.mean_delay();
    plan.events.push_back(e);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  // Self-check: a generator bug should surface here, at the source, rather
  // than as a confusing rejection inside whatever later consumes the plan.
  validate_fault_plan(plan, n);
  return plan;
}

namespace {

double parse_number(const std::string& tok, const std::string& spec) {
  try {
    std::size_t pos = 0;
    const double x = std::stod(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return x;
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_fault_plan: bad number '" + tok + "' in '" + spec +
                                "'");
  }
}

int parse_id(const std::string& tok, const std::string& spec) {
  try {
    std::size_t pos = 0;
    const int x = std::stoi(tok, &pos);
    if (pos != tok.size() || x < 0) throw std::invalid_argument(tok);
    return x;
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_fault_plan: bad device id '" + tok + "' in '" +
                                spec + "'");
  }
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    FaultEvent e;
    std::string head = item, tail;
    const auto at = item.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument("parse_fault_plan: missing '@<time>' in '" + item + "'");
    }
    head = item.substr(0, at);
    tail = item.substr(at + 1);

    std::string kind = head, target;
    const auto colon = head.find(':');
    if (colon != std::string::npos) {
      kind = head.substr(0, colon);
      target = head.substr(colon + 1);
    }

    // tail = <time>[x<factor>[+<delay>]][:<until>]
    std::string time_part = tail, until_part;
    const auto ucolon = tail.find(':');
    if (ucolon != std::string::npos) {
      time_part = tail.substr(0, ucolon);
      until_part = tail.substr(ucolon + 1);
    }
    std::string factor_part, delay_part;
    const auto x = time_part.find('x');
    if (x != std::string::npos) {
      factor_part = time_part.substr(x + 1);
      time_part = time_part.substr(0, x);
      const auto plus = factor_part.find('+');
      if (plus != std::string::npos) {
        delay_part = factor_part.substr(plus + 1);
        factor_part = factor_part.substr(0, plus);
      }
    }
    e.time = parse_number(time_part, item);
    if (!until_part.empty()) e.until = parse_number(until_part, item);

    if (kind == "crash" || kind == "leave") {
      e.kind = kind == "crash" ? FaultKind::kDeviceCrash : FaultKind::kDeviceLeave;
      if (target.empty()) {
        throw std::invalid_argument("parse_fault_plan: '" + kind + "' needs a device id");
      }
      e.device = parse_id(target, item);
    } else if (kind == "slow") {
      e.kind = FaultKind::kSlowdown;
      if (target.empty() || factor_part.empty()) {
        throw std::invalid_argument(
            "parse_fault_plan: 'slow' needs slow:<dev>@<t>x<factor>");
      }
      e.device = parse_id(target, item);
      e.factor = parse_number(factor_part, item);
    } else if (kind == "link") {
      e.kind = FaultKind::kLinkDegrade;
      const auto dash = target.find('-');
      if (dash == std::string::npos || factor_part.empty()) {
        throw std::invalid_argument(
            "parse_fault_plan: 'link' needs link:<src>-<dst>@<t>x<factor>");
      }
      e.link_src = parse_id(target.substr(0, dash), item);
      e.link_dst = parse_id(target.substr(dash + 1), item);
      e.factor = parse_number(factor_part, item);
      if (!delay_part.empty()) e.delay_add = parse_number(delay_part, item);
    } else if (kind == "join") {
      e.kind = FaultKind::kDeviceJoin;
      e.joined.speed = factor_part.empty() ? 1.0 : parse_number(factor_part, item);
      e.joined.name = "joined";
    } else {
      throw std::invalid_argument("parse_fault_plan: unknown event kind '" + kind + "'");
    }
    plan.events.push_back(e);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  return plan;
}

std::string describe(const FaultEvent& e) {
  std::ostringstream out;
  switch (e.kind) {
    case FaultKind::kDeviceCrash:
      out << "crash of device " << e.device << " at t=" << e.time;
      break;
    case FaultKind::kDeviceLeave:
      out << "departure of device " << e.device << " at t=" << e.time;
      break;
    case FaultKind::kSlowdown:
      out << "slowdown x" << e.factor << " of device " << e.device << " at t=" << e.time;
      if (e.until < kInf) out << " until t=" << e.until;
      break;
    case FaultKind::kLinkDegrade:
      out << "link " << e.link_src << "->" << e.link_dst << " degraded x" << e.factor;
      if (e.delay_add > 0.0) out << " (+" << e.delay_add << " delay)";
      out << " at t=" << e.time;
      if (e.until < kInf) out << " until t=" << e.until;
      break;
    case FaultKind::kDeviceJoin:
      out << "device join at t=" << e.time;
      break;
  }
  return out.str();
}

namespace {

/// The plan's crash, leave and slowdown events on base devices, expanded
/// onto the timeline (a transient slowdown adds a revert at `until`) and
/// stably sorted by time. Joins, and events on joined devices, cannot affect
/// a fixed placement over the base network; they matter for
/// post_fault_network(). Link degrades become trace segments instead.
std::vector<detail::FaultContext::Action> device_actions(const FaultPlan& plan,
                                                         int num_devices) {
  using Ctx = detail::FaultContext;
  std::vector<Ctx::Action> actions;
  for (const FaultEvent& e : plan.events) {
    if (e.device >= num_devices) continue;
    switch (e.kind) {
      case FaultKind::kDeviceCrash:
        actions.push_back({e.time, Ctx::kCrash, e.device});
        break;
      case FaultKind::kDeviceLeave:
        actions.push_back({e.time, Ctx::kLeave, e.device});
        break;
      case FaultKind::kSlowdown:
        actions.push_back({e.time, Ctx::kSlowApply, e.device, e.factor});
        if (e.until < kInf) {
          actions.push_back({e.until, Ctx::kSlowRevert, e.device, e.factor});
        }
        break;
      case FaultKind::kLinkDegrade:
      case FaultKind::kDeviceJoin:
        break;
    }
  }
  std::stable_sort(
      actions.begin(), actions.end(),
      [](const Ctx::Action& a, const Ctx::Action& b) { return a.time < b.time; });
  return actions;
}

/// The plan's link degrades on base links as a NetworkTrace: one schedule
/// per degraded link, in order of its first degrade in the plan, with a
/// segment at every instant a degrade on it starts or ends (equal instants
/// fold into one). Each segment is computed from the degrades active over
/// it, in plan order: bandwidth_factor = 1 / (product of their factors),
/// delay_add = sum of their delays.
NetworkTrace degrade_trace(const FaultPlan& plan, int num_devices) {
  NetworkTrace trace;
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::kLinkDegrade && e.link_src < num_devices &&
        e.link_dst < num_devices) {
      trace.link(e.link_src, e.link_dst);
    }
  }
  for (LinkSchedule& ls : trace.links) {
    std::vector<const FaultEvent*> degrades;
    std::vector<double> times;
    for (const FaultEvent& e : plan.events) {
      if (e.kind != FaultKind::kLinkDegrade || e.link_src != ls.src ||
          e.link_dst != ls.dst) {
        continue;
      }
      degrades.push_back(&e);
      times.push_back(e.time);
      if (e.until < kInf) times.push_back(e.until);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    for (const double t : times) {
      double product = 1.0, delay = 0.0;
      for (const FaultEvent* e : degrades) {
        if (e->time <= t && t < e->until) {
          product *= e->factor;
          delay += e->delay_add;
        }
      }
      ls.segments.push_back(TraceSegment{t, 1.0 / product, delay, 0.0});
    }
  }
  return trace;
}

}  // namespace

void detail::SimEngine::apply_fault(const FaultContext::Action& a, double t) {
  FaultContext& f = *faults;
  const int d = a.device;
  const int nv = g.num_tasks();
  const auto running_on_d = [&](int v) {
    return p.device_of(v) == d && out.tasks[v].start >= 0.0 && out.tasks[v].finish < 0.0;
  };
  if (a.type == FaultContext::kCrash || a.type == FaultContext::kLeave) {
    if (f.up[d] == 0) return;
    f.up[d] = 0;
    f.failed_devices.push_back(d);
    ws.fifo.clear(d);  // queued work never starts
    if (a.type == FaultContext::kLeave) return;  // running tasks finish and send
    // A crash kills the running tasks: the version bump turns their pending
    // completions stale.
    for (int v = 0; v < nv; ++v) {
      if (!running_on_d(v)) continue;
      ++f.task_version[v];
      out.tasks[v].start = -1.0;
    }
    ws.running[d] = 0;
    return;
  }
  // A straggler starts or ends: rescale the remaining work of the tasks
  // running on d.
  const double old_scale = f.scale[d];
  f.scale[d] = a.type == FaultContext::kSlowApply ? old_scale * a.factor
                                                  : old_scale / a.factor;
  for (int v = 0; v < nv; ++v) {
    if (!running_on_d(v)) continue;
    const double remaining = f.task_finish_at[v] - t;
    f.task_finish_at[v] = t + remaining * (f.scale[d] / old_scale);
    push_event(f.task_finish_at[v], kTaskDone, v, ++f.task_version[v]);
  }
}

FaultSimResult simulate_with_faults(const TaskGraph& g, const DeviceNetwork& n,
                                    const Placement& p, const LatencyModel& lat,
                                    const FaultPlan& plan, const SimOptions& opt) {
  validate_sim_options(opt, "simulate_with_faults");
  if (opt.trace != nullptr && !opt.trace->empty()) {
    throw std::invalid_argument(
        "simulate_with_faults: NetworkTrace is not supported on the fault path; "
        "encode time-varying link conditions as kLinkDegrade events instead");
  }
  validate_fault_plan(plan, n);
  const int nv = g.num_tasks();
  const int m = n.num_devices();

  detail::FaultContext faults;
  faults.actions = device_actions(plan, m);
  faults.up.assign(m, 1);
  faults.scale.assign(m, 1.0);
  faults.task_version.assign(nv, 0);
  faults.task_finish_at.assign(nv, -1.0);
  const NetworkTrace degrades = degrade_trace(plan, m);
  SimOptions with_degrades = opt;
  with_degrades.trace = &degrades;

  FaultSimResult result;
  SimWorkspace ws;
  detail::simulate_core(g, n, p, lat, ws, result.schedule, with_degrades, nullptr,
                        nullptr, &faults, "simulate_with_faults");
  // Everything unfinished - killed, never started on a dead device, or
  // starved of an input from a stranded ancestor - is stranded.
  for (int v = 0; v < nv; ++v) {
    if (result.schedule.tasks[v].finish < 0.0) result.stranded.push_back(v);
  }
  result.failed_devices = std::move(faults.failed_devices);
  std::sort(result.failed_devices.begin(), result.failed_devices.end());
  return result;
}

PostFaultNetwork post_fault_network(const DeviceNetwork& base, const FaultPlan& plan) {
  validate_fault_plan(plan, base);
  PostFaultNetwork out{base, std::vector<char>(base.num_devices(), 1)};
  DeviceNetwork& work = out.network;

  std::vector<const FaultEvent*> by_time;
  by_time.reserve(plan.events.size());
  for (const FaultEvent& e : plan.events) by_time.push_back(&e);
  std::stable_sort(by_time.begin(), by_time.end(),
                   [](const FaultEvent* a, const FaultEvent* b) { return a->time < b->time; });

  for (const FaultEvent* ep : by_time) {
    const FaultEvent& e = *ep;
    switch (e.kind) {
      case FaultKind::kDeviceCrash:
      case FaultKind::kDeviceLeave:
        out.up[e.device] = 0;
        break;
      case FaultKind::kSlowdown:
        // A permanent straggler is a proportionally slower device.
        if (e.until == kInf) work.device(e.device).speed /= e.factor;
        break;
      case FaultKind::kLinkDegrade:
        if (e.until == kInf) {
          work.set_link(e.link_src, e.link_dst,
                        work.bandwidth(e.link_src, e.link_dst) / e.factor,
                        work.delay(e.link_src, e.link_dst) + e.delay_add);
        }
        break;
      case FaultKind::kDeviceJoin: {
        const int j = work.add_device(e.joined);
        out.up.push_back(1);
        for (int k = 0; k < j; ++k) {
          work.set_symmetric_link(k, j, e.join_bandwidth, e.join_delay);
        }
        break;
      }
    }
  }
  return out;
}

Placement remap_placement(const Placement& p, const std::vector<int>& old_to_new) {
  Placement out(p.num_tasks());
  for (int v = 0; v < p.num_tasks(); ++v) {
    const int d = p.device_of(v);
    out.set(v, d >= 0 && d < static_cast<int>(old_to_new.size()) ? old_to_new[d] : -1);
  }
  return out;
}

TaskGraph remap_pinned(const TaskGraph& g, const std::vector<int>& old_to_new) {
  TaskGraph out = g;
  for (int v = 0; v < out.num_tasks(); ++v) {
    const int pin = out.task(v).pinned;
    if (pin < 0) continue;
    // A pin to a lost device maps to an out-of-range id: feasibility checks
    // then report "no feasible device" instead of silently unpinning.
    out.task(v).pinned = pin < static_cast<int>(old_to_new.size()) && old_to_new[pin] >= 0
                             ? old_to_new[pin]
                             : std::numeric_limits<int>::max();
  }
  return out;
}

}  // namespace giph
