#pragma once

#include <functional>

#include "sim/simulator.hpp"
#include "sim/stream.hpp"

namespace giph {

/// Denominator of the Schedule Length Ratio: the sum over CP_MIN (the
/// critical path computed from each task's minimum feasible compute cost) of
/// those minimum compute costs (Topcuoglu et al. normalization, Section 5).
double slr_denominator(const TaskGraph& g, const DeviceNetwork& n, const LatencyModel& lat);

/// SLR = makespan / slr_denominator. Lower is better; >= 1 would hold for an
/// ideal zero-communication schedule.
double slr(double makespan_value, double denominator);

/// Total cost objective of Appendix B.8: sum of each task's compute time plus
/// each data link's communication time under placement p.
double total_cost(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                  const LatencyModel& lat);

/// A performance criterion rho(M | G, N): smaller is better. The RL reward is
/// rho(s_t) - rho(s_{t+1}).
///
/// Receives the noise-free Schedule the search environment just simulated
/// for placement p, so makespan-style objectives read it instead of paying a
/// second simulation per step. Only objectives that deliberately re-sample
/// (e.g. noisy makespan) or model something else (e.g. NIC contention)
/// simulate internally, ignoring the schedule.
using ScheduleObjective = std::function<double(
    const TaskGraph&, const DeviceNetwork&, const Placement&, const Schedule&)>;

/// Evaluates a schedule-aware objective standalone (one noise-free simulation
/// to produce the schedule it consumes). For callers outside a search
/// environment, e.g. scoring a single placement.
double evaluate_objective(const ScheduleObjective& obj, const TaskGraph& g,
                          const DeviceNetwork& n, const Placement& p,
                          const LatencyModel& lat);

/// Makespan objective (expected, noise-free): reads the provided schedule,
/// zero extra simulations.
ScheduleObjective makespan_objective(const LatencyModel& lat);

/// Noisy makespan objective: each evaluation simulates one realization with
/// multiplicative uniform noise sigma using `rng` (ignoring the noise-free
/// schedule by design — the noise must be re-sampled).
ScheduleObjective noisy_makespan_objective(const LatencyModel& lat, double sigma,
                                           std::mt19937_64& rng);

/// Total-cost objective of Appendix B.8 (closed form; no simulation).
ScheduleObjective total_cost_objective(const LatencyModel& lat);

/// Streaming p99 tail-latency objective: each evaluation runs its own
/// simulate_streaming (the provided one-shot schedule cannot answer
/// cross-frame questions) and returns StreamResult::p99_latency. `stream` is
/// captured by value; its sim.rng, if set, must outlive the objective and is
/// consumed per evaluation (jitter/noise re-sampled, like noisy makespan).
/// Copyable with shared internal buffers: single-threaded use, one objective
/// per worker.
ScheduleObjective streaming_p99_objective(const LatencyModel& lat,
                                          StreamOptions stream);

/// Streaming throughput objective, as a minimized quantity: returns
/// 1 / StreamResult::throughput (the mean inter-frame completion period;
/// 0 when throughput is infinite). Same evaluation contract as
/// streaming_p99_objective.
ScheduleObjective streaming_throughput_objective(const LatencyModel& lat,
                                                 StreamOptions stream);

}  // namespace giph
