#pragma once

#include <vector>

#include "graph/device_network.hpp"

namespace giph {

/// One piecewise-constant segment of a link's condition over time. The
/// segment is active from `time` (inclusive) until the next segment's start;
/// before a link's first segment the link is in its nominal state
/// (bandwidth_factor 1, delay_add 0, drop_prob 0).
///
/// Shape follows webrtc's SimLinkConfig{bw_bps, drop_prob} (SNIPPETS.md §2),
/// expressed relative to the DeviceNetwork's nominal link so one trace can be
/// replayed against many networks:
///  - bandwidth_factor multiplies the link bandwidth (0.5 = half speed);
///  - delay_add is added to the transfer's startup delay at dispatch;
///  - drop_prob inflates the wire (bandwidth-proportional) portion of the
///    transfer by the expected retransmit count 1 / (1 - drop_prob).
struct TraceSegment {
  double time = 0.0;
  double bandwidth_factor = 1.0;
  double delay_add = 0.0;
  double drop_prob = 0.0;
};

/// Schedule of condition changes on one directed link src -> dst.
struct LinkSchedule {
  int src = -1;
  int dst = -1;
  std::vector<TraceSegment> segments;  ///< strictly increasing time
};

/// A piecewise-constant network condition trace: per-link schedules of
/// bandwidth, delay, and drop probability. Consumed by simulate() /
/// simulate_into() via SimOptions::trace; a transfer in flight when a segment
/// boundary passes is split at the breakpoint and its remaining *wire* time
/// rescaled. simulate_with_faults() replays kLinkDegrade events as segments of
/// exactly this kind.
///
/// An empty trace (no link has any segment) is bitwise-equivalent to passing
/// no trace at all.
struct NetworkTrace {
  std::vector<LinkSchedule> links;

  bool empty() const {
    for (const LinkSchedule& l : links) {
      if (!l.segments.empty()) return false;
    }
    return true;
  }

  /// Find-or-create the schedule for directed link src -> dst.
  LinkSchedule& link(int src, int dst) {
    for (LinkSchedule& l : links) {
      if (l.src == src && l.dst == dst) return l;
    }
    links.push_back(LinkSchedule{src, dst, {}});
    return links.back();
  }
};

/// The wire-time multiplier of a segment: 1/bandwidth_factor slows the wire
/// portion down, 1/(1 - drop_prob) pays for expected retransmits. Both the
/// simulator and the independent oracle must inflate wire time with exactly
/// this expression (bitwise).
inline double wire_factor(const TraceSegment& s) {
  return (1.0 / s.bandwidth_factor) / (1.0 - s.drop_prob);
}

/// Throws std::invalid_argument (with the offending link / segment named)
/// when the trace is malformed for network `n`: endpoint out of range or
/// self-link, duplicate (src, dst) schedules, segment times not finite /
/// negative / not strictly increasing, bandwidth_factor not finite-positive,
/// delay_add negative, or drop_prob outside [0, 1).
void validate_network_trace(const NetworkTrace& trace, const DeviceNetwork& n,
                            const char* caller = "validate_network_trace");

}  // namespace giph
