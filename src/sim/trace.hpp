#pragma once

#include <iosfwd>
#include <string>

#include "sim/simulator.hpp"
#include "sim/stream.hpp"

namespace giph {

/// Writes the schedule as CSV: one `task` row per task (id, name, device,
/// start, finish) followed by one `edge` row per data link (id, src, dst,
/// from_device, to_device, start, finish). Times are written with
/// max_digits10 precision, so parsing them back recovers the exact doubles:
/// traces double as exact fixtures, not just plotting input. The stream's
/// precision is restored before returning.
void write_schedule_csv(std::ostream& out, const TaskGraph& g, const DeviceNetwork& n,
                        const Placement& p, const Schedule& sched);

/// Writes the per-frame streaming timings as CSV: one row per frame (frame,
/// arrival, finish, latency) followed by one `summary` row carrying frames,
/// throughput, p50, p99, and makespan. Same exact-fixture contract as
/// write_schedule_csv: times at max_digits10 precision (parsing recovers the
/// exact doubles) and the stream's precision restored before returning.
void write_stream_csv(std::ostream& out, const StreamResult& result);

/// Renders an ASCII Gantt chart of the schedule: one row per device, time on
/// the horizontal axis scaled to `width` characters. Task executions are
/// drawn with per-task letters; '.' marks idle time.
std::string ascii_gantt(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                        const Schedule& sched, int width = 72);

}  // namespace giph
