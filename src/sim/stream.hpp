#pragma once

#include "sim/simulator.hpp"

namespace giph {

/// Options for iterated-graph (streaming) execution: F frames of the same
/// placed task graph enter the system, frame f arriving `interval` time units
/// after frame f-1 (optionally jittered), and pipeline through the FIFO
/// devices. Link contention (NIC links included), traces, and noise
/// (SimOptions `sim`) apply across frame boundaries exactly as within one.
struct StreamOptions {
  int frames = 1;       ///< F >= 1; 1 reduces bitwise to simulate()
  double interval = 0.0;  ///< inter-arrival gap Delta-t (>= 0)
  /// Multiplicative jitter on each gap: gap_f drawn uniformly from
  /// [interval * (1 - j), interval * (1 + j)] using sim.rng. All F - 1 gap
  /// draws happen up front in frame order, before any simulation draw, so
  /// F = 1 leaves the rng stream untouched. Must be in [0, 1).
  double arrival_jitter = 0.0;
  SimOptions sim;  ///< noise / trace / shared links
};

/// Throws std::invalid_argument when `opt` is unusable: frames < 1, negative
/// or non-finite interval, arrival_jitter outside [0, 1) or > 0 without an
/// rng, or invalid embedded SimOptions.
void validate_stream_options(const StreamOptions& opt, const char* caller);

/// Result of one streaming run. `schedule` covers the frame-replicated
/// instance: task f * V + v is frame f's copy of base task v, edge f * E + e
/// frame f's copy of base edge e (no cross-frame edges).
struct StreamResult {
  Schedule schedule;  ///< replicated: frames * V tasks, frames * E edges
  std::vector<double> frame_arrival;  ///< per frame: when it entered ([0] == 0)
  std::vector<double> frame_finish;   ///< per frame: max task finish (>= arrival)
  std::vector<double> frame_latency;  ///< per frame: finish - arrival
  int frames = 0;  ///< frames simulated (== StreamOptions::frames)
  /// frames / (last frame finish - first frame finish) for frames > 1
  /// (1 / frame_latency[0] for a single frame); +infinity on a zero span.
  double throughput = 0.0;
  double p50_latency = 0.0;  ///< nearest-rank percentile of frame_latency
  double p99_latency = 0.0;
  double makespan = 0.0;  ///< schedule.makespan of the whole replicated run
};

/// Reusable buffers for simulate_streaming_into(): the inner SimWorkspace
/// plus the frame-replicated graph/placement, cached on (graph stamp,
/// frames) so objective evaluations over one instance rebuild nothing. Not
/// shareable between concurrent simulations (one per thread).
struct StreamWorkspace {
  SimWorkspace sim;
  TaskGraph replicated;
  Placement replicated_placement;
  std::vector<int> entries;  ///< base-graph entry task ids, ascending
  /// Scratch: the frame latencies, sorted for the percentiles.
  std::vector<double> sorted_latency;
  std::uint64_t cached_graph_stamp = 0;
  int cached_frames = -1;
};

/// Simulates F frames of (g, n, p) entering every `interval` time units and
/// pipelining through the FIFO devices (frames queue behind earlier frames'
/// work; link reservations, NIC links included, carry across frame
/// boundaries).
/// The latency model is consulted with *base* task/edge ids, so profile-table
/// models work unchanged. With frames == 1 the returned schedule is bitwise
/// identical to simulate(g, n, p, lat, opt.sim).
///
/// Throws like simulate() plus validate_stream_options().
StreamResult simulate_streaming(const TaskGraph& g, const DeviceNetwork& n,
                                const Placement& p, const LatencyModel& lat,
                                const StreamOptions& opt = {});

/// Allocation-amortizing core of simulate_streaming(): writes into `out`
/// reusing `ws` (bitwise identical to simulate_streaming for the same
/// inputs). Used by the streaming objectives on search hot paths.
void simulate_streaming_into(const TaskGraph& g, const DeviceNetwork& n,
                             const Placement& p, const LatencyModel& lat,
                             StreamWorkspace& ws, StreamResult& out,
                             const StreamOptions& opt = {});

/// Nearest-rank percentile (q in [0, 1]): the ceil(q * n)-th smallest value,
/// no interpolation — the convention StreamResult's p50/p99 use (an observed
/// frame latency, never a blend of two). Returns 0 for an empty sample.
double nearest_rank_percentile(std::vector<double> xs, double q);

}  // namespace giph
