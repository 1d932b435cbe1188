#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <sstream>
#include <vector>

#include "core/reinforce.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "serve/serve_faults.hpp"
#include "serve/server.hpp"
#include "sim/metrics.hpp"
#include "util/checked_file.hpp"

namespace giph::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Instance {
  TaskGraph graph;
  DeviceNetwork network;
};

Instance make_instance(std::uint64_t seed, int tasks = 12, int devices = 4) {
  std::mt19937_64 rng(seed);
  TaskGraphParams gp;
  gp.num_tasks = tasks;
  NetworkParams np;
  np.num_devices = devices;
  np.num_hw_kinds = gp.num_hw_kinds;
  Instance in;
  in.graph = generate_task_graph(gp, rng);
  in.network = generate_device_network(np, rng);
  ensure_feasible(in.graph, in.network, rng);
  return in;
}

PlacementRequest make_request(const Instance& in, const std::string& id = "r1") {
  PlacementRequest req;
  req.id = id;
  req.graph = in.graph;
  req.network = in.network;
  req.steps = 8;
  req.seed = 21;
  return req;
}

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// --- protocol ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripWithWarmStart) {
  const Instance in = make_instance(1);
  PlacementRequest req = make_request(in);
  req.deadline_ms = 12.5;
  std::mt19937_64 rng(4);
  req.initial = random_placement(in.graph, in.network, rng);

  std::ostringstream os;
  write_request(os, req);
  std::istringstream is(os.str());
  PlacementRequest back;
  ASSERT_TRUE(read_request(is, back));
  EXPECT_EQ(back.id, "r1");
  EXPECT_EQ(back.deadline_ms, 12.5);
  EXPECT_EQ(back.steps, 8);
  EXPECT_EQ(back.seed, 21u);
  ASSERT_TRUE(back.initial.has_value());
  EXPECT_EQ(*back.initial, *req.initial);
  EXPECT_EQ(back.graph.num_tasks(), in.graph.num_tasks());
  EXPECT_EQ(back.network.num_devices(), in.network.num_devices());
}

TEST(ServeProtocol, CleanEofReturnsFalse) {
  std::istringstream empty("   \n  ");
  PlacementRequest req;
  EXPECT_FALSE(read_request(empty, req));
}

TEST(ServeProtocol, MalformedFieldsReportLineAndFieldContext) {
  std::istringstream is("giph-request v1\nid x\ndeadline_ms banana\n");
  PlacementRequest req;
  try {
    read_request(is, req);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), "giph-request");
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("deadline_ms is not a number"),
              std::string::npos)
        << e.what();
  }
}

// A seed must be all decimal digits: strtoull would turn "-1" into 2^64 - 1
// and accept "+7", so both are errors naming the field and its line, as is
// a value past 2^64 - 1.
TEST(ServeProtocol, SignedOrOverflowingSeedIsAnError) {
  const Instance in = make_instance(3, /*tasks=*/4);
  std::ostringstream os;
  write_request(os, make_request(in));
  const std::string wire = os.str();
  const auto at = wire.find("seed 21\n");
  ASSERT_NE(at, std::string::npos);
  for (const std::string bad : {"-1", "+7", "18446744073709551616", "0x10"}) {
    SCOPED_TRACE(bad);
    std::string edited = wire;
    edited.replace(at, 7, "seed " + bad);
    std::istringstream is(edited);
    PlacementRequest back;
    try {
      read_request(is, back);
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 5);
      EXPECT_NE(std::string(e.what()).find("seed is not an unsigned integer: '" + bad),
                std::string::npos)
          << e.what();
    }
  }
  std::istringstream ok(wire);
  PlacementRequest back;
  ASSERT_TRUE(read_request(ok, back));
  EXPECT_EQ(back.seed, 21u);
}

TEST(ServeProtocol, WarmStartSizeMismatchIsAnError) {
  const Instance in = make_instance(2, /*tasks=*/6);
  PlacementRequest req = make_request(in);
  req.initial = Placement(6);
  for (int v = 0; v < 6; ++v) req.initial->set(v, 0);
  std::ostringstream os;
  write_request(os, req);
  // Corrupt the placement block: claim 5 tasks instead of 6.
  std::string wire = os.str();
  const auto at = wire.find("placement v1\n6");
  ASSERT_NE(at, std::string::npos);
  wire.replace(at, 14, "placement v1\n5");
  std::istringstream is(wire);
  PlacementRequest back;
  EXPECT_THROW(read_request(is, back), ParseError);
}

// --- snapshots --------------------------------------------------------------

TEST(ServeSnapshot, RoundTripPreservesGreedyBehavior) {
  const std::string path = temp_path("giph_snapshot_rt.bin");
  GiPHAgent original(GiPHOptions{.embed_dim = 4, .seed = 17});
  save_policy_snapshot(path, original);

  const auto snap = load_policy_snapshot(path);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->options.embed_dim, 4);
  EXPECT_EQ(snap->source, path);

  // The loaded agent must behave bitwise like the original: greedy search
  // from the same state picks the same placements.
  const Instance in = make_instance(3);
  const DefaultLatencyModel lat;
  std::mt19937_64 prng(9);
  const Placement init = random_placement(in.graph, in.network, prng);

  PlacementSearchEnv e1(in.graph, in.network, lat, makespan_objective(lat), init);
  PlacementSearchEnv e2(in.graph, in.network, lat, makespan_objective(lat), init);
  std::mt19937_64 r1(1), r2(1);
  auto clone = snap->agent->clone_for_rollout();
  ASSERT_NE(clone, nullptr);
  run_search(original, e1, 10, r1, /*greedy=*/true);
  run_search(*clone, e2, 10, r2, /*greedy=*/true);
  EXPECT_EQ(e1.best_placement(), e2.best_placement());
  EXPECT_EQ(e1.best_objective(), e2.best_objective());
  fs::remove(path);
}

TEST(ServeSnapshot, TruncatedSnapshotReportsTornWriteAndKeepsLastGood) {
  const std::string path = temp_path("giph_snapshot_torn.bin");
  GiPHAgent agent(GiPHOptions{.embed_dim = 3, .seed = 5});
  save_policy_snapshot(path, agent);

  SnapshotStore store;
  ASSERT_TRUE(store.load(path));
  const auto good = store.current();
  ASSERT_NE(good, nullptr);

  // Torn write: drop the tail of the file mid-payload.
  const auto size = static_cast<std::size_t>(fs::file_size(path));
  inject_file_fault(path, FileFault::kTruncate, size / 2);
  std::string error;
  EXPECT_FALSE(store.load(path, &error));
  EXPECT_NE(error.find("torn write"), std::string::npos) << error;
  EXPECT_EQ(store.current(), good) << "failed load must keep the last-good snapshot";
  EXPECT_EQ(store.failed_loads(), 1u);
  fs::remove(path);
}

TEST(ServeSnapshot, CorruptPayloadFailsChecksumAndKeepsLastGood) {
  const std::string path = temp_path("giph_snapshot_flip.bin");
  GiPHAgent agent(GiPHOptions{.embed_dim = 3, .seed = 6});
  save_policy_snapshot(path, agent);

  SnapshotStore store;
  ASSERT_TRUE(store.load(path));
  const auto good = store.current();

  const auto size = static_cast<std::size_t>(fs::file_size(path));
  inject_file_fault(path, FileFault::kFlipByte, size - 3);
  std::string error;
  EXPECT_FALSE(store.load(path, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  EXPECT_EQ(store.current(), good);
  fs::remove(path);
}

TEST(ServeSnapshot, MissingFileFailsWithoutInstallingAnything) {
  SnapshotStore store;
  std::string error;
  EXPECT_FALSE(store.load(temp_path("giph_snapshot_missing.bin"), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(store.current(), nullptr);
}

TEST(ServeSnapshot, HotSwapBumpsVersion) {
  const std::string path = temp_path("giph_snapshot_swap.bin");
  GiPHAgent agent(GiPHOptions{.seed = 8});
  save_policy_snapshot(path, agent);
  SnapshotStore store;
  ASSERT_TRUE(store.load(path));
  const std::uint64_t v1 = store.current()->version;
  ASSERT_TRUE(store.load(path));
  EXPECT_GT(store.current()->version, v1);
  EXPECT_EQ(store.swaps(), 2u);
  fs::remove(path);
}

// Torn-write detection for the parameter files behind snapshots: a truncated
// giph-params file must throw, not load garbage.
TEST(ServeSnapshot, TruncatedParamFileThrowsOnLoad) {
  const std::string path = temp_path("giph_params_torn.bin");
  GiPHAgent agent(GiPHOptions{.seed = 4});
  agent.save(path);

  GiPHAgent fresh(GiPHOptions{.seed = 4});
  EXPECT_NO_THROW(fresh.load(path));

  const auto size = static_cast<std::size_t>(fs::file_size(path));
  inject_file_fault(path, FileFault::kTruncate, size / 3);
  EXPECT_THROW(fresh.load(path), std::runtime_error);
  fs::remove(path);
}

// --- server -----------------------------------------------------------------

TEST(ServeServer, DegradedModeServesHeftWithoutSnapshot) {
  SnapshotStore store;  // empty: no snapshot was ever loaded
  PlacementServer server(ServerOptions{}, store);
  const Instance in = make_instance(5);
  const PlacementResponse resp = server.handle(make_request(in));
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_EQ(resp.mode, ServeMode::kHeft);
  EXPECT_EQ(resp.steps, 0);
  ASSERT_TRUE(resp.placement.has_value());
  EXPECT_TRUE(is_feasible(in.graph, in.network, *resp.placement));
  EXPECT_GT(resp.makespan, 0.0);
  EXPECT_EQ(server.stats().served_heft, 1u);
}

TEST(ServeServer, PolicyModeIsDeterministicPerSeed) {
  const std::string path = temp_path("giph_serve_policy.bin");
  GiPHAgent agent(GiPHOptions{.seed = 12});
  save_policy_snapshot(path, agent);
  SnapshotStore store;
  ASSERT_TRUE(store.load(path));

  PlacementServer server(ServerOptions{}, store);
  const Instance in = make_instance(6);
  const PlacementResponse r1 = server.handle(make_request(in));
  const PlacementResponse r2 = server.handle(make_request(in));
  EXPECT_EQ(r1.status, ResponseStatus::kOk);
  EXPECT_EQ(r1.mode, ServeMode::kPolicy);
  EXPECT_EQ(r1.steps, 8);
  ASSERT_TRUE(r1.placement.has_value());
  ASSERT_TRUE(r2.placement.has_value());
  EXPECT_EQ(*r1.placement, *r2.placement);  // same seed, same budget: bitwise
  EXPECT_EQ(r1.makespan, r2.makespan);
  fs::remove(path);
}

TEST(ServeServer, EmptyGraphIsServedTrivially) {
  SnapshotStore store;
  PlacementServer server(ServerOptions{}, store);
  PlacementRequest req;
  req.id = "empty";
  const PlacementResponse resp = server.handle(req);
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_EQ(resp.makespan, 0.0);
  ASSERT_TRUE(resp.placement.has_value());
  EXPECT_EQ(resp.placement->num_tasks(), 0);
}

TEST(ServeServer, InfeasibleInstanceIsAnErrorResponseNotACrash) {
  SnapshotStore store;
  PlacementServer server(ServerOptions{}, store);
  PlacementRequest req;
  req.id = "bad";
  req.graph.add_task(Task{.compute = 1.0, .requires_hw = 0b1});
  req.network.add_device(Device{.speed = 1.0, .supports_hw = 0});  // cannot host
  const PlacementResponse resp = server.handle(req);
  EXPECT_EQ(resp.status, ResponseStatus::kError);
  EXPECT_FALSE(resp.error.empty());
  EXPECT_FALSE(resp.placement.has_value());
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServeServer, InfeasibleWarmStartIsRejectedExplicitly) {
  SnapshotStore store;
  PlacementServer server(ServerOptions{}, store);
  const Instance in = make_instance(7);
  PlacementRequest req = make_request(in);
  req.initial = Placement(in.graph.num_tasks());  // all tasks unplaced (-1)
  const PlacementResponse resp = server.handle(req);
  EXPECT_EQ(resp.status, ResponseStatus::kError);
  EXPECT_NE(resp.error.find("initial placement"), std::string::npos) << resp.error;
}

TEST(ServeServer, PreExpiredDeadlineReturnsWarmStartImmediately) {
  SnapshotStore store;
  PlacementServer server(ServerOptions{}, store);
  const Instance in = make_instance(8);
  PlacementRequest req = make_request(in);
  req.deadline_ms = 1e-9;  // expires before any budget is left
  const PlacementResponse resp = server.handle(req);
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_TRUE(resp.deadline_exceeded);
  EXPECT_EQ(resp.steps, 0);
  ASSERT_TRUE(resp.placement.has_value());
  EXPECT_TRUE(is_feasible(in.graph, in.network, *resp.placement));
}

// Deadline storm: every request carries a deadline far below its step budget.
// Each must come back promptly (anytime search), flagged, and still carrying a
// valid best-so-far placement.
TEST(ServeServer, DeadlineStormReturnsBestSoFarPromptly) {
  const std::string path = temp_path("giph_serve_storm.bin");
  GiPHAgent agent(GiPHOptions{.seed = 13});
  save_policy_snapshot(path, agent);
  SnapshotStore store;
  ASSERT_TRUE(store.load(path));

  ServerOptions opt;
  opt.max_steps = 1000000;
  PlacementServer server(opt, store);
  const Instance in = make_instance(9, /*tasks=*/20);
  for (int i = 0; i < 5; ++i) {
    PlacementRequest req = make_request(in, "storm-" + std::to_string(i));
    req.steps = 1000000;     // would run for minutes...
    req.deadline_ms = 50.0;  // ...but must return within the deadline's order
    const Clock::time_point t0 = Clock::now();
    const PlacementResponse resp = server.handle(req);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    EXPECT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.deadline_exceeded);
    EXPECT_LT(resp.steps, 1000000);
    ASSERT_TRUE(resp.placement.has_value());
    EXPECT_TRUE(is_feasible(in.graph, in.network, *resp.placement));
    // Generous bound (sanitizer builds are slow): the point is that an
    // anytime search returns on the deadline's scale, not the budget's.
    EXPECT_LT(elapsed_ms, 5000.0);
  }
  EXPECT_EQ(server.stats().deadline_exceeded, 5u);
  fs::remove(path);
}

TEST(ServeServer, PoisonRequestBecomesErrorResponseAndServingContinues) {
  SnapshotStore store;
  FaultInjector faults;
  faults.poison_request("poison", "injected fault: worker exploded");
  PlacementServer server(ServerOptions{}, store, faults.hooks());
  const Instance in = make_instance(10);

  const PlacementResponse bad = server.handle(make_request(in, "poison"));
  EXPECT_EQ(bad.status, ResponseStatus::kError);
  EXPECT_NE(bad.error.find("worker exploded"), std::string::npos);

  const PlacementResponse good = server.handle(make_request(in, "fine"));
  EXPECT_EQ(good.status, ResponseStatus::kOk);
}

// Overload: a stalled worker pins the pool while submits keep arriving. With
// queue capacity Q and one request in flight, exactly Q - 1 more are admitted
// and the rest shed — an exact, machine-independent count.
TEST(ServeServer, OverloadShedsDeterministicallyAtCapacity) {
  // With one worker parked on a stalled request, a queue of capacity Q admits
  // Q - 1 of the requests submitted behind it and sheds the rest: the shed
  // count is a closed form of the queue bound, not of machine speed.
  struct Overload {
    int capacity;
    int submits;
    int shed;
    double shed_rate;
  };
  for (const Overload& c : {Overload{4, 8, 5, 0.625}, Overload{8, 16, 9, 0.5625}}) {
    SCOPED_TRACE("capacity " + std::to_string(c.capacity));
    SnapshotStore store;
    FaultInjector faults;
    faults.hold_request("stall");
    ServerOptions opt;
    opt.workers = 2;  // one background worker to park on the stall
    opt.queue_capacity = c.capacity;
    PlacementServer server(opt, store, faults.hooks());
    const Instance in = make_instance(11, /*tasks=*/6);

    std::mutex mu;
    std::vector<PlacementResponse> responses;
    const auto sink = [&](const PlacementResponse& r) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(r);
    };

    ASSERT_TRUE(server.submit(make_request(in, "stall"), sink));
    faults.wait_for_awaiting(1);  // the worker is parked inside the stall

    int admitted = 0, shed = 0;
    for (int i = 0; i < c.submits; ++i) {
      if (server.submit(make_request(in, "q-" + std::to_string(i)), sink)) {
        ++admitted;
      } else {
        ++shed;
      }
    }
    EXPECT_EQ(admitted, c.capacity - 1);  // minus the stalled in-flight request
    EXPECT_EQ(shed, c.shed);
    EXPECT_EQ(static_cast<double>(shed) / c.submits, c.shed_rate);

    faults.release_all();
    server.stop_and_drain();
    // Every submit, admitted or shed, and the stall get exactly one response.
    EXPECT_EQ(responses.size(), static_cast<std::size_t>(c.submits + 1));

    int ok = 0, shed_responses = 0;
    for (const auto& r : responses) {
      if (r.status == ResponseStatus::kOk) ++ok;
      if (r.status == ResponseStatus::kShed) {
        ++shed_responses;
        EXPECT_NE(r.error.find("queue at capacity"), std::string::npos);
      }
    }
    EXPECT_EQ(ok, c.capacity);  // the stall plus the admitted requests
    EXPECT_EQ(shed_responses, c.shed);
    EXPECT_EQ(server.stats().shed, static_cast<std::uint64_t>(c.shed));
  }
}

TEST(ServeServer, SubmitAfterDrainDeliversErrorResponse) {
  SnapshotStore store;
  PlacementServer server(ServerOptions{}, store);
  server.stop_and_drain();
  const Instance in = make_instance(12);
  PlacementResponse got;
  EXPECT_FALSE(server.submit(make_request(in), [&](const PlacementResponse& r) {
    got = r;
  }));
  EXPECT_EQ(got.status, ResponseStatus::kError);
  EXPECT_NE(got.error.find("draining"), std::string::npos);
}

// --- stream loop ------------------------------------------------------------

TEST(ServeStream, PoisonFrameDoesNotKillTheStream) {
  SnapshotStore store;
  PlacementServer server(ServerOptions{}, store);
  const Instance in = make_instance(13);

  std::ostringstream feed;
  write_request(feed, make_request(in, "a"));
  feed << "giph-request v1\nid broken\ndeadline_ms nope\n";  // poison frame
  write_request(feed, make_request(in, "b"));

  std::istringstream is(feed.str());
  std::ostringstream os;
  const std::uint64_t served = serve_stream(is, os, server);
  EXPECT_EQ(served, 2u);

  std::istringstream rs(os.str());
  int ok = 0, errors = 0;
  PlacementResponse resp;
  while (read_response(rs, resp)) {
    if (resp.status == ResponseStatus::kOk) ++ok;
    if (resp.status == ResponseStatus::kError) {
      ++errors;
      EXPECT_NE(resp.error.find("deadline_ms"), std::string::npos) << resp.error;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(errors, 1);
}

TEST(ServeFaults, FileFaultOffsetOutOfRangeThrows) {
  const std::string path = temp_path("giph_fault_range.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "abc";
  }
  EXPECT_THROW(inject_file_fault(path, FileFault::kTruncate, 99), std::runtime_error);
  fs::remove(path);
}

}  // namespace
}  // namespace giph::serve
