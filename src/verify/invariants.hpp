#pragma once

#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"

namespace giph {

/// Result of validating a Schedule against first principles. Empty violations
/// means the schedule is consistent with the Appendix B.5 execution model.
struct InvariantReport {
  std::vector<std::string> violations;

  bool ok() const noexcept { return violations.empty(); }
  /// All violations joined into one newline-separated string ("" when ok).
  std::string summary() const;
};

/// What check_schedule is allowed to assume about how the schedule was
/// produced. Mirrors the SimOptions the simulation ran with.
struct CheckOptions {
  /// Noise sigma the run used. 0 demands exact Eq. 2-3 durations; sigma > 0
  /// relaxes every duration to the draw interval [x(1-sigma), x(1+sigma)].
  double noise = 0.0;
  /// Fault-injection runs: tasks with finish < 0 are stranded, not missing.
  /// Completed tasks are still held to precedence / capacity / FIFO rules,
  /// but duration checks and start-time provenance are skipped (faults
  /// rescale in-flight work).
  bool allow_incomplete = false;
  /// The run used this NetworkTrace (SimOptions::trace). Duration checks are
  /// skipped for edges on traced links (breakpoints rescale in-flight wire
  /// time), and the link non-overlap check is skipped entirely (a rescale can
  /// stretch a transfer past its dispatch-time reservation).
  /// Everything else - precedence, capacity, FIFO, makespan - still holds.
  const NetworkTrace* trace = nullptr;
  /// The run used link contention (SimOptions::shared_links, NIC links
  /// included): transfers whose route is non-empty may start after their
  /// producer finishes (queued behind a busy link), and transfers crossing a
  /// common link must not overlap (checked unless a trace or allow_incomplete
  /// forbids it). A map that does not fit the network is a shape violation.
  const SharedLinkMap* shared_links = nullptr;
  /// Optional per-task release times (streaming: the frame arrival of each
  /// replicated task). A task's ready time starts from its release instead of
  /// 0 — entry tasks must not start before it, and FIFO / work-conservation
  /// provenance is judged against it. Size must equal the graph's task count;
  /// nullptr means every task is releasable at t = 0 (the one-shot model).
  const std::vector<double>* release_times = nullptr;
};

/// Validates `sched` for (g, n, p, lat) against first principles, sharing no
/// logic with the simulator:
///   - shape: per-task and per-edge arrays sized to the graph, and the
///     shared-link map valid for the network (validate_shared_link_map);
///   - placement: every task on an in-range device satisfying its pin and
///     hardware-requirement mask;
///   - sanity: starts/finishes finite, start <= finish, nothing before t = 0;
///   - precedence: each transfer starts at (without contention: exactly at)
///     its producer's finish, finishes after it starts, and its consumer
///     starts no earlier than the arrival of every input;
///   - durations: noise-free runs must reproduce the latency model exactly
///     (finish == start + w bitwise, same for edges); noisy runs must stay
///     inside the draw interval;
///   - capacity: at no time does a device run more tasks than it has cores
///     (a finish and a start at the same instant do not overlap);
///   - FIFO: tasks on one device start in the order their inputs arrived
///     (strictly earlier ready time implies no later start);
///   - work conservation: a task starts either the moment it became ready or
///     the moment another task on its device finished (complete runs only);
///   - links: under shared_links, transfers whose routes cross a common link
///     (physical or NIC) are pairwise non-overlapping;
///   - makespan equals max finish - min start over (completed) tasks.
///
/// Reports every violation found, not just the first.
InvariantReport check_schedule(const TaskGraph& g, const DeviceNetwork& n,
                               const Placement& p, const LatencyModel& lat,
                               const Schedule& sched, const CheckOptions& opt = {});

/// Validates a fault-injection run: runs check_schedule in allow_incomplete
/// mode (durations unchecked - faults rescale in-flight work) and additionally
/// checks the stranded bookkeeping: `stranded` lists exactly the unfinished
/// tasks in ascending order, stranded tasks have no recorded start, and every
/// completed task's parents all completed with their transfers delivered.
InvariantReport check_fault_result(const TaskGraph& g, const DeviceNetwork& n,
                                   const Placement& p, const LatencyModel& lat,
                                   const FaultSimResult& result,
                                   const CheckOptions& opt = {});

/// Validates a streaming run from first principles: rebuilds the
/// frame-replicated instance itself (F copies of g, same device per frame,
/// latency model consulted with base ids, per-task release = frame arrival),
/// runs check_schedule over it with the release-aware ready times, and then
/// checks the streaming contract proper:
///   - bookkeeping: frames == opt.frames, per-frame arrays sized to it,
///     schedule arrays sized frames * V / frames * E;
///   - arrivals: start at 0, non-decreasing, each gap equal to the interval
///     (jitter-free) or inside [interval(1-j), interval(1+j)];
///   - per-frame finish = max(arrival, task finishes of the frame) and
///     latency = finish - arrival, bitwise;
///   - monotone frame completion (noise-free runs only: noise can let a later
///     frame overtake an earlier one);
///   - throughput = frames / (last finish - first finish) bitwise (frames > 1;
///     1 / latency for a single frame), p50/p99 = nearest-rank percentiles of
///     the frame latencies, makespan = the replicated schedule's makespan.
InvariantReport check_stream_result(const TaskGraph& g, const DeviceNetwork& n,
                                    const Placement& p, const LatencyModel& lat,
                                    const StreamResult& result,
                                    const StreamOptions& opt);

}  // namespace giph
