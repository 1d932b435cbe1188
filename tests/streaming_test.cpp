// Property tests for iterated-graph (streaming) execution: the F = 1 bitwise
// reduction to simulate(), the Delta-t -> infinity collapse to one-shot
// makespans, throughput monotonicity in the arrival interval, the streaming
// objectives, thread-count invariance of streaming evaluation through the
// eval:: fan-out, and the exact-precision per-frame CSV export.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/random_policies.hpp"
#include "eval/evaluation.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "graph/placement.hpp"
#include "sim/metrics.hpp"
#include "sim/stream.hpp"
#include "sim/trace.hpp"
#include "testutil.hpp"

namespace giph {
namespace {

using testutil::bytes_equal;
using testutil::schedule_bytes_equal;

const DefaultLatencyModel kLat;

/// The golden-17 pipeline: chain t0 -> t1 across two unit-speed devices,
/// integer-friendly so streaming times are exact doubles.
struct Pipeline {
  TaskGraph g;
  DeviceNetwork n;
  Placement p{0};
  Pipeline() {
    Task a;
    a.compute = 4.0;
    Task b;
    b.compute = 4.0;
    g.add_task(a);
    g.add_task(b);
    g.add_edge(0, 1, 2.0);
    Device d;
    d.speed = 1.0;
    n.add_device(d);
    n.add_device(d);
    n.set_symmetric_link(0, 1, 2.0, 1.0);
    p = Placement(2);
    p.set(0, 0);
    p.set(1, 1);
  }
};

struct RandomInstance {
  TaskGraph g;
  DeviceNetwork n;
  Placement p{0};
  explicit RandomInstance(std::uint64_t seed, int tasks = 12, int devices = 3) {
    std::mt19937_64 rng(seed);
    TaskGraphParams gp;
    gp.num_tasks = tasks;
    NetworkParams np;
    np.num_devices = devices;
    g = generate_task_graph(gp, rng);
    n = generate_device_network(np, rng);
    ensure_feasible(g, n, rng);
    p = random_placement(g, n, rng);
  }
};

TEST(Streaming, SingleFrameIsBitwiseTheOneShotSimulator) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    RandomInstance in(seed);
    StreamOptions opt;
    opt.frames = 1;
    opt.interval = 5.0;  // irrelevant with one frame
    SharedLinkMap nics;
    add_nic_links(nics, in.n.num_devices());
    if (seed % 2 == 0) opt.sim.shared_links = &nics;
    std::mt19937_64 ra(seed), rb(seed);
    if (seed % 2 == 1) {
      opt.sim.noise = 0.2;
      opt.sim.rng = &ra;
    }
    const StreamResult r = simulate_streaming(in.g, in.n, in.p, kLat, opt);
    SimOptions one = opt.sim;
    if (one.noise > 0.0) one.rng = &rb;
    const Schedule flat = simulate(in.g, in.n, in.p, kLat, one);
    ASSERT_EQ(r.schedule.tasks.size(), flat.tasks.size());
    for (std::size_t v = 0; v < flat.tasks.size(); ++v) {
      EXPECT_EQ(r.schedule.tasks[v].start, flat.tasks[v].start);
      EXPECT_EQ(r.schedule.tasks[v].finish, flat.tasks[v].finish);
    }
    EXPECT_EQ(r.schedule.edge_start, flat.edge_start);
    EXPECT_EQ(r.schedule.edge_finish, flat.edge_finish);
    EXPECT_EQ(r.schedule.makespan, flat.makespan);
    EXPECT_EQ(r.frames, 1);
    EXPECT_EQ(r.frame_latency[0], r.p99_latency);
  }
}

TEST(Streaming, ReusedWorkspaceIsBitwiseTheAllocatingPath) {
  // simulate_streaming_into caches the frame-replicated graph on (graph
  // stamp, frames). One workspace carried across instances and frame counts,
  // back and forth, must reproduce the allocating path byte for byte.
  std::vector<RandomInstance> instances;
  instances.emplace_back(41, 12, 3);
  instances.emplace_back(42, 50, 20);
  instances.emplace_back(43, 20, 5);
  StreamWorkspace ws;
  StreamResult reused;
  for (const bool nic : {false, true}) {
    for (const RandomInstance& in : instances) {
      const double one_shot = simulate(in.g, in.n, in.p, kLat).makespan;
      for (const int frames : {1, 32, 8}) {
        SCOPED_TRACE("tasks " + std::to_string(in.g.num_tasks()) + ", frames " +
                     std::to_string(frames) + ", nic " + std::to_string(nic));
        StreamOptions opt;
        opt.frames = frames;
        opt.interval = one_shot / 4.0;  // frames overlap on the devices
        SharedLinkMap nics;
        add_nic_links(nics, in.n.num_devices());
        if (nic) opt.sim.shared_links = &nics;
        const StreamResult fresh = simulate_streaming(in.g, in.n, in.p, kLat, opt);
        simulate_streaming_into(in.g, in.n, in.p, kLat, ws, reused, opt);
        EXPECT_TRUE(schedule_bytes_equal(fresh.schedule, reused.schedule));
        EXPECT_TRUE(bytes_equal(fresh.frame_arrival, reused.frame_arrival));
        EXPECT_TRUE(bytes_equal(fresh.frame_finish, reused.frame_finish));
        EXPECT_TRUE(bytes_equal(fresh.frame_latency, reused.frame_latency));
        EXPECT_EQ(fresh.frames, reused.frames);
        EXPECT_TRUE(bytes_equal(fresh.throughput, reused.throughput));
        EXPECT_TRUE(bytes_equal(fresh.p50_latency, reused.p50_latency));
        EXPECT_TRUE(bytes_equal(fresh.p99_latency, reused.p99_latency));
        EXPECT_TRUE(bytes_equal(fresh.makespan, reused.makespan));
      }
    }
  }
}

TEST(Streaming, WideIntervalCollapsesToIndependentOneShots) {
  // Delta-t beyond the makespan: every frame sees an idle system, so each
  // frame's latency equals the one-shot makespan. Exact on the
  // integer-friendly pipeline; within relative tolerance on random instances
  // (frame times are offset by the arrival, so association differs).
  Pipeline pl;
  const double makespan = simulate(pl.g, pl.n, pl.p, kLat).makespan;  // 10
  StreamOptions opt;
  opt.frames = 4;
  opt.interval = 2.0 * makespan;
  const StreamResult r = simulate_streaming(pl.g, pl.n, pl.p, kLat, opt);
  for (double lat : r.frame_latency) EXPECT_EQ(lat, makespan);
  EXPECT_EQ(r.p50_latency, makespan);
  EXPECT_EQ(r.p99_latency, makespan);

  for (std::uint64_t seed : {11u, 12u, 13u}) {
    RandomInstance in(seed);
    const double m = simulate(in.g, in.n, in.p, kLat).makespan;
    StreamOptions o;
    o.frames = 3;
    o.interval = 3.0 * std::max(1.0, m);
    const StreamResult s = simulate_streaming(in.g, in.n, in.p, kLat, o);
    for (double lat : s.frame_latency) EXPECT_NEAR(lat, m, 1e-9 * std::max(1.0, m));
  }
}

TEST(Streaming, ThroughputIsMonotoneInTheArrivalInterval) {
  // On the two-stage pipeline, shrinking Delta-t never lowers throughput:
  // below the bottleneck stage time it saturates, above it tracks 1/Delta-t.
  Pipeline pl;
  double prev = 0.0;  // throughput at the widest interval, filled first
  const std::vector<double> intervals{20.0, 12.0, 8.0, 6.0, 4.0, 3.0, 2.0, 1.0};
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    StreamOptions opt;
    opt.frames = 8;
    opt.interval = intervals[i];
    const StreamResult r = simulate_streaming(pl.g, pl.n, pl.p, kLat, opt);
    if (i > 0) {
      EXPECT_GE(r.throughput, prev - 1e-12)
          << "interval " << intervals[i] << " lowered throughput";
    }
    prev = r.throughput;
  }
  // And saturation is the bottleneck stage: at Delta-t = 1 the 4-time-unit
  // stages emit a frame every 4 time units, so the F / (last - first finish)
  // identity gives 8 frames over a 7-gap span of 28.
  EXPECT_NEAR(prev, 8.0 / 28.0, 1e-12);
}

TEST(Streaming, ObjectivesReportTailLatencyAndInverseThroughput) {
  Pipeline pl;
  StreamOptions opt;
  opt.frames = 6;
  opt.interval = 4.0;
  const StreamResult r = simulate_streaming(pl.g, pl.n, pl.p, kLat, opt);

  ScheduleObjective p99 = streaming_p99_objective(kLat, opt);
  ScheduleObjective tp = streaming_throughput_objective(kLat, opt);
  const Schedule unused;
  EXPECT_EQ(p99(pl.g, pl.n, pl.p, unused), r.p99_latency);
  EXPECT_EQ(tp(pl.g, pl.n, pl.p, unused), 1.0 / r.throughput);
  // Repeat evaluations reuse the captured workspace and stay identical.
  EXPECT_EQ(p99(pl.g, pl.n, pl.p, unused), r.p99_latency);
}

TEST(Streaming, EvalFanOutIsThreadCountInvariantWithStreamingObjectives) {
  // policy_finals with a streaming objective must be bitwise identical for
  // every thread count and across repeats (per-case rng seeding unchanged).
  std::vector<RandomInstance> instances;
  for (std::uint64_t s = 21; s < 27; ++s) instances.emplace_back(s, 10, 3);
  std::vector<eval::Case> cases;
  for (const auto& in : instances) cases.push_back(eval::Case{&in.g, &in.n});

  ObjectiveFactory objective = [](const TaskGraph&, const DeviceNetwork&,
                                  std::mt19937_64&) {
    StreamOptions opt;
    opt.frames = 4;
    opt.interval = 30.0;
    return streaming_p99_objective(kLat, opt);
  };
  const eval::PolicyFactory factory = [] {
    return std::unique_ptr<SearchPolicy>(new RandomWalkPolicy());
  };
  const auto serial = eval::policy_finals(factory, cases, kLat, 0.0, 7, 1, objective);
  const auto threaded = eval::policy_finals(factory, cases, kLat, 0.0, 7, 4, objective);
  EXPECT_EQ(serial, threaded);
  const auto repeat = eval::policy_finals(factory, cases, kLat, 0.0, 7, 4, objective);
  EXPECT_EQ(threaded, repeat);

  // Curves too: custom-objective curves are raw values, still monotone
  // (best-so-far) and thread-count invariant.
  const eval::Curve c1 = eval::policy_curve(factory, cases, kLat, 0.0, 7, 5, 1, objective);
  const eval::Curve c4 = eval::policy_curve(factory, cases, kLat, 0.0, 7, 5, 4, objective);
  EXPECT_EQ(c1.values, c4.values);
  for (std::size_t i = 1; i < c1.values.size(); ++i) {
    EXPECT_LE(c1.values[i], c1.values[i - 1] + 1e-12);
  }
}

TEST(Streaming, CsvExportRoundTripsEveryDoubleExactly) {
  RandomInstance in(31);
  StreamOptions opt;
  opt.frames = 5;
  opt.interval = 7.3;
  const StreamResult r = simulate_streaming(in.g, in.n, in.p, kLat, opt);

  std::ostringstream out;
  out.precision(3);  // the writer must restore this
  write_stream_csv(out, r);
  EXPECT_EQ(out.precision(), 3);

  std::istringstream is(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "frame,arrival,finish,latency");
  for (int f = 0; f < r.frames; ++f) {
    ASSERT_TRUE(std::getline(is, line));
    std::istringstream row(line);
    std::string cell;
    std::getline(row, cell, ',');
    EXPECT_EQ(std::stoi(cell), f);
    std::getline(row, cell, ',');
    EXPECT_EQ(std::stod(cell), r.frame_arrival[f]);  // bitwise round-trip
    std::getline(row, cell, ',');
    EXPECT_EQ(std::stod(cell), r.frame_finish[f]);
    std::getline(row, cell, ',');
    EXPECT_EQ(std::stod(cell), r.frame_latency[f]);
  }
  ASSERT_TRUE(std::getline(is, line));
  std::istringstream row(line);
  std::string cell;
  std::getline(row, cell, ',');
  EXPECT_EQ(cell, "summary");
  std::getline(row, cell, ',');
  EXPECT_EQ(std::stoi(cell), r.frames);
  std::getline(row, cell, ',');
  EXPECT_EQ(std::stod(cell), r.throughput);
  std::getline(row, cell, ',');
  EXPECT_EQ(std::stod(cell), r.p50_latency);
  std::getline(row, cell, ',');
  EXPECT_EQ(std::stod(cell), r.p99_latency);
  std::getline(row, cell, ',');
  EXPECT_EQ(std::stod(cell), r.makespan);
}

TEST(Streaming, NearestRankPercentileConvention) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(nearest_rank_percentile(xs, 0.0), 1.0);
  EXPECT_EQ(nearest_rank_percentile(xs, 0.25), 1.0);
  EXPECT_EQ(nearest_rank_percentile(xs, 0.5), 2.0);
  EXPECT_EQ(nearest_rank_percentile(xs, 0.99), 4.0);
  EXPECT_EQ(nearest_rank_percentile(xs, 1.0), 4.0);
  EXPECT_EQ(nearest_rank_percentile({}, 0.5), 0.0);
}

TEST(Streaming, RejectsBadOptions) {
  Pipeline pl;
  StreamOptions opt;
  opt.frames = 0;
  EXPECT_THROW(simulate_streaming(pl.g, pl.n, pl.p, kLat, opt), std::invalid_argument);
  opt.frames = 2;
  opt.interval = -1.0;
  EXPECT_THROW(simulate_streaming(pl.g, pl.n, pl.p, kLat, opt), std::invalid_argument);
  opt.interval = 1.0;
  opt.arrival_jitter = 0.5;  // jitter needs an rng
  EXPECT_THROW(simulate_streaming(pl.g, pl.n, pl.p, kLat, opt), std::invalid_argument);
  opt.arrival_jitter = 1.5;
  std::mt19937_64 rng(1);
  opt.sim.rng = &rng;
  EXPECT_THROW(simulate_streaming(pl.g, pl.n, pl.p, kLat, opt), std::invalid_argument);
}

}  // namespace
}  // namespace giph
