#include "sim/trace.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

namespace giph {

void write_schedule_csv(std::ostream& out, const TaskGraph& g, const DeviceNetwork& n,
                        const Placement& p, const Schedule& sched) {
  // max_digits10 makes every time round-trip to the exact double: the default
  // ostream precision (6) truncates, which silently disqualified CSV traces
  // as exact fixtures. Restored below so the caller's stream is unchanged.
  const auto saved_precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << "kind,id,name,device,peer_device,start,finish\n";
  for (int v = 0; v < g.num_tasks(); ++v) {
    out << "task," << v << "," << (g.task(v).name.empty() ? "t" + std::to_string(v)
                                                          : g.task(v).name)
        << "," << p.device_of(v) << ",," << sched.tasks[v].start << ","
        << sched.tasks[v].finish << "\n";
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    const DataLink& link = g.edge(e);
    out << "edge," << e << "," << link.src << "->" << link.dst << ","
        << p.device_of(link.src) << "," << p.device_of(link.dst) << ","
        << sched.edge_start[e] << "," << sched.edge_finish[e] << "\n";
  }
  out.precision(saved_precision);
  (void)n;
}

void write_stream_csv(std::ostream& out, const StreamResult& result) {
  // Same exact-fixture contract as write_schedule_csv: max_digits10 so every
  // latency round-trips to the exact double, precision restored on return.
  const auto saved_precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << "frame,arrival,finish,latency\n";
  for (int f = 0; f < result.frames; ++f) {
    out << f << "," << result.frame_arrival[f] << "," << result.frame_finish[f]
        << "," << result.frame_latency[f] << "\n";
  }
  out << "summary," << result.frames << "," << result.throughput << ","
      << result.p50_latency << "," << result.p99_latency << "," << result.makespan
      << "\n";
  out.precision(saved_precision);
}

std::string ascii_gantt(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                        const Schedule& sched, int width) {
  std::ostringstream out;
  const double span = std::max(sched.makespan, 1e-12);
  const double per_char = span / std::max(1, width);
  out << "time: 0 .. " << sched.makespan << " (" << per_char << " per column)\n";
  for (int d = 0; d < n.num_devices(); ++d) {
    std::string row(width, '.');
    for (int v = 0; v < g.num_tasks(); ++v) {
      if (p.device_of(v) != d) continue;
      int c0 = static_cast<int>(sched.tasks[v].start / span * width);
      int c1 = static_cast<int>(sched.tasks[v].finish / span * width);
      c0 = std::clamp(c0, 0, width - 1);
      c1 = std::clamp(c1, c0 + 1, width);
      const char mark = static_cast<char>('A' + v % 26);
      for (int c = c0; c < c1; ++c) row[c] = mark;
    }
    const std::string label = n.device(d).name.empty() ? "d" + std::to_string(d)
                                                       : n.device(d).name;
    out << label;
    for (std::size_t k = label.size(); k < 10; ++k) out << ' ';
    out << '|' << row << "|\n";
  }
  return out.str();
}

}  // namespace giph
