// Golden-schedule regression corpus: each tests/data/golden/*.txt file holds
// a hand-checkable (graph, network, placement) triple in the repo's v1 text
// formats plus the exact expected task/edge start/finish times. The simulator
// and the reference oracle must both reproduce every number bitwise; the
// invariant checker must accept the result. A change in any of these numbers
// is a semantic change to the cost model and must be deliberate.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/serialization.hpp"
#include "graph/topology.hpp"
#include "sim/latency_model.hpp"
#include "sim/network_trace.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"
#include "verify/invariants.hpp"
#include "verify/oracle.hpp"

namespace giph {
namespace {

const DefaultLatencyModel kLat;

struct GoldenCase {
  std::string name;
  TaskGraph graph;
  DeviceNetwork network;
  Placement placement;
  Schedule expected;
  // Optional dynamic-conditions blocks between "placement v1" and
  // "expected v1" (see load_golden): a network trace and a sparse physical
  // topology (the loader projects it onto the network and builds the
  // shared-link map).
  NetworkTrace trace;
  bool has_trace = false;
  SharedLinkMap shared;
  bool has_shared = false;
  // Optional "delta-move v1" block: the expected block holds the schedule
  // AFTER moving delta_task to delta_device from the base `placement`. On a
  // static case (no trace, shared links or NIC links) the base run
  // seeds the DeltaSimState, and simulate_delta must take the incremental
  // path and reproduce the expected block bitwise.
  bool has_delta_move = false;
  int delta_task = -1;
  int delta_device = -1;
  // Optional "stream v1" block ("frames interval serialize"): the case is a
  // streaming run of `frames` copies of the graph entering every `interval`
  // time units, and the expected block holds the frame-replicated schedule
  // (frames * V tasks, frames * E edges; task f * V + v is frame f's copy).
  // A nonzero serialize flag adds one NIC link per device (add_nic_links) to
  // the shared-link map.
  bool has_stream = false;
  int stream_frames = 1;
  double stream_interval = 0.0;
  bool stream_serialize = false;

  /// The placement the expected schedule corresponds to (post-move when a
  /// delta-move block is present).
  Placement final_placement() const {
    Placement p = placement;
    if (has_delta_move) p.set(delta_task, delta_device);
    return p;
  }

  /// No trace, shared links or NIC links: the static model, the only
  /// one simulate_delta replays.
  bool is_static() const { return !has_trace && !has_shared && !stream_serialize; }

  SimOptions sim_options() const {
    SimOptions opt;
    if (has_trace) opt.trace = &trace;
    if (has_shared || stream_serialize) opt.shared_links = &shared;
    return opt;
  }

  StreamOptions stream_options() const {
    StreamOptions opt;
    opt.frames = stream_frames;
    opt.interval = stream_interval;
    opt.sim = sim_options();
    return opt;
  }
};

// '#' lines are comments (the hand derivation); everything else feeds the v1
// parsers, then optional "trace v1" / "shared-links v1" blocks, followed by
// the mandatory "expected v1" block.
//
//   trace v1         <num schedules>, per schedule "src dst nseg" then nseg
//                    lines of "time bandwidth_factor delay_add drop_prob";
//   shared-links v1  <num links>, per link "a b bandwidth delay bidirectional"
//                    (the loader runs apply_topology + build_shared_link_map,
//                    so the network matrices in the file are overwritten by
//                    the projection);
//   delta-move v1    "task device": the expected block is the post-move
//                    schedule (on a static case, reached from the base
//                    placement incrementally).
GoldenCase load_golden(const std::filesystem::path& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open golden case: " + path.string());
  std::stringstream clean;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty() && line[0] == '#') continue;
    clean << line << '\n';
  }

  GoldenCase c;
  c.name = path.filename().string();
  c.graph = read_task_graph(clean);
  c.network = read_device_network(clean);
  c.placement = read_placement(clean);

  std::string kind, version;
  clean >> kind >> version;
  while (kind != "expected") {
    if (version != "v1") {
      throw std::runtime_error(c.name + ": unknown block '" + kind + " " + version + "'");
    }
    if (kind == "delta-move") {
      c.has_delta_move = true;
      clean >> c.delta_task >> c.delta_device;
      if (!clean) throw std::runtime_error(c.name + ": truncated 'delta-move' block");
      clean >> kind >> version;
      continue;
    }
    if (kind == "stream") {
      c.has_stream = true;
      int serialize = 0;
      clean >> c.stream_frames >> c.stream_interval >> serialize;
      c.stream_serialize = serialize != 0;
      if (!clean) throw std::runtime_error(c.name + ": truncated 'stream' block");
      clean >> kind >> version;
      continue;
    }
    int count = 0;
    clean >> count;
    if (kind == "trace") {
      c.has_trace = true;
      for (int i = 0; i < count; ++i) {
        int src = 0, dst = 0, nseg = 0;
        clean >> src >> dst >> nseg;
        LinkSchedule& ls = c.trace.link(src, dst);
        for (int s = 0; s < nseg; ++s) {
          TraceSegment seg;
          clean >> seg.time >> seg.bandwidth_factor >> seg.delay_add >> seg.drop_prob;
          ls.segments.push_back(seg);
        }
      }
    } else if (kind == "shared-links") {
      c.has_shared = true;
      std::vector<PhysicalLink> links(count);
      for (PhysicalLink& l : links) {
        int bidir = 1;
        clean >> l.a >> l.b >> l.bandwidth >> l.delay >> bidir;
        l.bidirectional = bidir != 0;
      }
      apply_topology(c.network, links);
      c.shared = build_shared_link_map(c.network.num_devices(), links);
    } else {
      throw std::runtime_error(c.name + ": unknown block '" + kind + "'");
    }
    if (!clean) throw std::runtime_error(c.name + ": truncated '" + kind + "' block");
    clean >> kind >> version;
  }
  if (kind != "expected" || version != "v1") {
    throw std::runtime_error(c.name + ": expected 'expected v1' block");
  }
  if (c.stream_serialize) add_nic_links(c.shared, c.network.num_devices());
  int nv = 0, ne = 0;
  clean >> nv >> ne;
  // Streaming cases carry the frame-replicated schedule.
  if (!clean || nv != c.stream_frames * c.graph.num_tasks() ||
      ne != c.stream_frames * c.graph.num_edges()) {
    throw std::runtime_error(c.name + ": expected-block counts disagree with the graph");
  }
  c.expected.tasks.resize(nv);
  for (int v = 0; v < nv; ++v) {
    clean >> c.expected.tasks[v].start >> c.expected.tasks[v].finish;
  }
  c.expected.edge_start.resize(ne);
  c.expected.edge_finish.resize(ne);
  for (int e = 0; e < ne; ++e) {
    clean >> c.expected.edge_start[e] >> c.expected.edge_finish[e];
  }
  clean >> c.expected.makespan;
  if (!clean) throw std::runtime_error(c.name + ": truncated expected block");
  return c;
}

std::vector<std::filesystem::path> golden_files() {
  const std::filesystem::path dir =
      std::filesystem::path(GIPH_SOURCE_DIR) / "tests" / "data" / "golden";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".txt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

void expect_matches(const GoldenCase& c, const Schedule& got, const char* which) {
  ASSERT_EQ(got.tasks.size(), c.expected.tasks.size()) << c.name << " " << which;
  ASSERT_EQ(got.edge_start.size(), c.expected.edge_start.size())
      << c.name << " " << which;
  for (int v = 0; v < static_cast<int>(c.expected.tasks.size()); ++v) {
    EXPECT_EQ(got.tasks[v].start, c.expected.tasks[v].start)
        << c.name << " " << which << " task " << v;
    EXPECT_EQ(got.tasks[v].finish, c.expected.tasks[v].finish)
        << c.name << " " << which << " task " << v;
  }
  for (int e = 0; e < static_cast<int>(c.expected.edge_start.size()); ++e) {
    EXPECT_EQ(got.edge_start[e], c.expected.edge_start[e])
        << c.name << " " << which << " edge " << e;
    EXPECT_EQ(got.edge_finish[e], c.expected.edge_finish[e])
        << c.name << " " << which << " edge " << e;
  }
  EXPECT_EQ(got.makespan, c.expected.makespan) << c.name << " " << which << " makespan";
}

// The other golden tests run whatever files exist, so this is what notices a
// deleted case: the file names must number 01, 02, ... with no gap, through
// at least case 26.
TEST(GoldenSchedules, CorpusIsNonTrivial) {
  const std::vector<std::filesystem::path> files = golden_files();
  EXPECT_GE(files.size(), 26u);
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(std::stoi(files[i].filename().string().substr(0, 2)),
              static_cast<int>(i) + 1)
        << files[i];
  }
}

TEST(GoldenSchedules, SimulatorReproducesEveryCase) {
  for (const auto& path : golden_files()) {
    const GoldenCase c = load_golden(path);
    if (c.has_stream) {
      const StreamResult r = simulate_streaming(c.graph, c.network, c.final_placement(),
                                                kLat, c.stream_options());
      expect_matches(c, r.schedule, "simulate_streaming");
    } else {
      expect_matches(
          c, simulate(c.graph, c.network, c.final_placement(), kLat, c.sim_options()),
          "simulate");
    }
  }
}

TEST(GoldenSchedules, OracleReproducesEveryCase) {
  for (const auto& path : golden_files()) {
    const GoldenCase c = load_golden(path);
    if (c.has_stream) {
      const StreamResult r = oracle_simulate_streaming(
          c.graph, c.network, c.final_placement(), kLat, c.stream_options());
      expect_matches(c, r.schedule, "streaming oracle");
    } else {
      expect_matches(
          c,
          oracle_simulate(c.graph, c.network, c.final_placement(), kLat, c.sim_options()),
          "oracle");
    }
  }
}

TEST(GoldenSchedules, InvariantCheckerAcceptsEveryCase) {
  for (const auto& path : golden_files()) {
    const GoldenCase c = load_golden(path);
    const Placement p = c.final_placement();
    if (c.has_stream) {
      const StreamOptions sopt = c.stream_options();
      const StreamResult r = simulate_streaming(c.graph, c.network, p, kLat, sopt);
      const InvariantReport rep =
          check_stream_result(c.graph, c.network, p, kLat, r, sopt);
      EXPECT_TRUE(rep.ok()) << c.name << ":\n" << rep.summary();
      continue;
    }
    const SimOptions opt = c.sim_options();
    const Schedule s = simulate(c.graph, c.network, p, kLat, opt);
    CheckOptions check;
    check.trace = opt.trace;
    check.shared_links = opt.shared_links;
    const InvariantReport r = check_schedule(c.graph, c.network, p, kLat, s, check);
    EXPECT_TRUE(r.ok()) << c.name << ":\n" << r.summary();
  }
}

TEST(GoldenSchedules, StreamingCasesCoverCrossFrameContention) {
  // The corpus must keep its hand-derived streaming cases: a pipeline with
  // cross-frame overlap, a NIC-serialized cross-frame transfer, shared-link
  // contention spanning a frame boundary, and a later frame releasing
  // several entry tasks into one busy device's queue.
  int seen = 0, serialized = 0, shared = 0, multi_entry = 0;
  for (const auto& path : golden_files()) {
    const GoldenCase c = load_golden(path);
    if (!c.has_stream) continue;
    ++seen;
    serialized += c.stream_serialize ? 1 : 0;
    shared += c.has_shared ? 1 : 0;
    int entries = 0;
    for (int v = 0; v < c.graph.num_tasks(); ++v) entries += c.graph.in_degree(v) == 0;
    multi_entry += entries >= 2 ? 1 : 0;
    ASSERT_GE(c.stream_frames, 2) << c.name << ": streaming case must pipeline";
    const StreamOptions sopt = c.stream_options();
    const StreamResult r =
        simulate_streaming(c.graph, c.network, c.final_placement(), kLat, sopt);
    // Pipelining means some frame overlaps its predecessor's work: frame f
    // must start (some task) before frame f-1 completely finished.
    const int nv = c.graph.num_tasks();
    bool overlapped = false;
    for (int f = 1; f < r.frames && !overlapped; ++f) {
      for (int v = 0; v < nv; ++v) {
        if (r.schedule.tasks[f * nv + v].start < r.frame_finish[f - 1]) {
          overlapped = true;
          break;
        }
      }
    }
    EXPECT_TRUE(overlapped) << c.name << ": frames never overlapped";
  }
  EXPECT_GE(seen, 3);
  EXPECT_GE(serialized, 1) << "need a NIC-serialized streaming case";
  EXPECT_GE(shared, 1) << "need a shared-link streaming case";
  EXPECT_GE(multi_entry, 1) << "need a streaming case with several entry tasks";
}

TEST(GoldenSchedules, DeltaMoveCasesReplayIncrementallyAndBitwise) {
  int seen = 0;
  for (const auto& path : golden_files()) {
    const GoldenCase c = load_golden(path);
    if (!c.has_delta_move || !c.is_static()) continue;
    ++seen;
    SimWorkspace ws;
    Schedule prev, out;
    DeltaSimState ds, out_ds;
    simulate_into(c.graph, c.network, c.placement, kLat, ws, prev, ds);
    const Placement moved = c.final_placement();
    const DeltaSimResult dr = simulate_delta(c.graph, c.network, moved, c.delta_task, kLat,
                                             ws, prev, ds, out, out_ds);
    EXPECT_TRUE(dr == DeltaSimResult::kReplayed)
        << c.name << ": move was hand-picked to replay, not fall back";
    expect_matches(c, out, "delta");
  }
  EXPECT_GE(seen, 2) << "corpus must keep its hand-derived static delta-move cases";
}

}  // namespace
}  // namespace giph
