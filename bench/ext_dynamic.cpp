// Extension bench (not a paper figure): throughput and determinism of the
// dynamic-conditions machinery.
//
//  1. sims/sec  - simulate() on one instance, plain vs with the full dynamic
//                 stack enabled (a NetworkTrace with per-link breakpoints plus
//                 shared-link contention over a sparse ring topology), to keep
//                 the dynamic paths' overhead honest;
//  2. churn     - evaluate_churn over a mobility-driven script: epochs/sec
//                 from the fastest of repeated calls, plus the determinism
//                 contract checked twice - the same seed run twice must match
//                 bitwise, and a 4-thread run must match the serial one
//                 bitwise.
//
// Results go to BENCH_dynamic.json in the working directory; CI gates the
// *_per_sec keys and the bitwise flag against the committed baseline.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>

#include "baselines/random_policies.hpp"
#include "bench/common.hpp"
#include "casestudy/churn.hpp"
#include "eval/robustness_eval.hpp"
#include "graph/topology.hpp"
#include "heft/heft.hpp"
#include "sim/network_trace.hpp"

using namespace giph;
using namespace giph::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool cells_equal(const eval::ChurnReport& a, const eval::ChurnReport& b) {
  if (a.rows.size() != b.rows.size() || a.num_epochs != b.num_epochs) return false;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    const eval::ChurnRow& x = a.rows[r];
    const eval::ChurnRow& y = b.rows[r];
    if (x.placer != y.placer || x.cells.size() != y.cells.size()) return false;
    for (std::size_t t = 0; t < x.cells.size(); ++t) {
      const eval::ChurnCell& c = x.cells[t];
      const eval::ChurnCell& d = y.cells[t];
      if (c.makespan_before != d.makespan_before ||
          c.makespan_after != d.makespan_after || c.stranded != d.stranded ||
          c.moved != d.moved || c.repair_steps != d.repair_steps ||
          c.recoverable != d.recoverable) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  const Scale scale = Scale::from_env();
  const DefaultLatencyModel lat;
  std::mt19937_64 rng(7);

  // --- 1. simulation throughput, plain vs dynamic ---------------------------
  TaskGraphParams gp;
  gp.num_tasks = 50;
  const TaskGraph g = generate_task_graph(gp, rng);
  const int nd = 8;

  // Sparse ring + chords: every pair routes through shared physical links.
  std::vector<PhysicalLink> phys;
  for (int k = 0; k < nd; ++k) {
    phys.push_back({k, (k + 1) % nd, 2000.0, 0.05, true});
  }
  phys.push_back({0, nd / 2, 4000.0, 0.02, true});
  NetworkParams np;
  np.num_devices = nd;
  DeviceNetwork n = generate_device_network(np, rng);
  apply_topology(n, phys);
  const SharedLinkMap shared = build_shared_link_map(nd, phys);
  ensure_feasible(g, n, rng);

  NetworkTrace trace;
  std::uniform_real_distribution<double> factor(0.4, 1.6);
  for (int k = 0; k < nd; ++k) {
    LinkSchedule& ls = trace.link(k, (k + 1) % nd);
    for (int s = 0; s < 4; ++s) {
      ls.segments.push_back({2.0 + 3.0 * s, factor(rng), 0.01 * s, 0.02 * s});
    }
  }

  const Placement p = heft_schedule(g, n, lat).placement;
  const int sims = scale.full ? 40000 : 8000;
  double guard = 0.0;

  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < sims; ++i) guard += simulate(g, n, p, lat).makespan;
  const double plain_sps = sims / seconds_since(t0);

  SimOptions dyn;
  dyn.trace = &trace;
  dyn.shared_links = &shared;
  t0 = Clock::now();
  for (int i = 0; i < sims; ++i) guard += simulate(g, n, p, lat, dyn).makespan;
  const double dyn_sps = sims / seconds_since(t0);

  std::printf("simulate() on %d tasks / %d devices\n", g.num_tasks(), nd);
  std::printf("%-32s %14.0f sims/s\n", "plain", plain_sps);
  std::printf("%-32s %14.0f sims/s\n", "trace + shared links", dyn_sps);
  std::printf("%-32s %13.1f%%\n", "dynamic overhead",
              100.0 * (plain_sps / dyn_sps - 1.0));

  // --- 2. churn protocol ----------------------------------------------------
  TaskGraphParams cgp;
  cgp.num_tasks = scale.full ? 20 : 12;
  std::mt19937_64 crng(11);
  const TaskGraph churn_g = generate_task_graph(cgp, crng);

  casestudy::ChurnScriptParams cp;
  cp.mobility.num_vehicles = 6;
  cp.epochs = scale.full ? 16 : 8;
  const eval::ChurnScript script = casestudy::generate_churn_script(cp);

  RandomTaskEftPolicy eft;
  RandomWalkPolicy walk;
  const std::vector<std::pair<std::string, SearchPolicy*>> placers = {
      {eft.name(), &eft}, {walk.name(), &walk}};
  eval::ChurnOptions copt;
  copt.seed = 21;

  // One call takes under a millisecond, so a single timing swings with the
  // host; the rate is the best of at least 1,000 calls and 0.25 s.
  const eval::ChurnReport serial = eval::evaluate_churn(churn_g, script, lat, placers, copt);
  double churn_sec = 0.0;
  int churn_calls = 0;
  for (const Clock::time_point start = Clock::now();
       churn_calls < 1000 || seconds_since(start) < 0.25; ++churn_calls) {
    t0 = Clock::now();
    guard += eval::evaluate_churn(churn_g, script, lat, placers, copt).num_epochs;
    const double sec = seconds_since(t0);
    churn_sec = churn_calls == 0 ? sec : std::min(churn_sec, sec);
  }
  const eval::ChurnReport again = eval::evaluate_churn(churn_g, script, lat, placers, copt);
  copt.threads = 4;
  const eval::ChurnReport threaded = eval::evaluate_churn(churn_g, script, lat, placers, copt);

  const bool bitwise = cells_equal(serial, again) && cells_equal(serial, threaded);
  const double epochs_per_sec =
      static_cast<double>(serial.num_epochs) * serial.rows.size() / churn_sec;

  std::printf("\nchurn: %d tasks, %d epochs, %zu rows\n", churn_g.num_tasks(),
              serial.num_epochs, serial.rows.size());
  std::printf("%-32s %14.1f epoch-rows/s (best of %d calls)\n", "throughput",
              epochs_per_sec, churn_calls);
  std::printf("%-32s %14s\n", "bitwise identical (rerun, 4 thr)", bitwise ? "yes" : "NO");
  std::printf("\n%s\n", eval::format_churn_report(serial).c_str());

  std::FILE* f = std::fopen("BENCH_dynamic.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"case\": {\"tasks\": %d, \"devices\": %d, \"physical_links\": %zu},\n"
                 "  \"plain_sims_per_sec\": %.1f,\n"
                 "  \"dynamic_sims_per_sec\": %.1f,\n"
                 "  \"dynamic_overhead\": %.3f,\n"
                 "  \"churn\": {\n"
                 "    \"tasks\": %d,\n"
                 "    \"epochs\": %d,\n"
                 "    \"rows\": %zu,\n"
                 "    \"epoch_rows_per_sec\": %.1f,\n"
                 "    \"bitwise_identical\": %s\n"
                 "  }\n"
                 "}\n",
                 g.num_tasks(), nd, phys.size(), plain_sps, dyn_sps,
                 plain_sps / dyn_sps - 1.0, churn_g.num_tasks(), serial.num_epochs,
                 serial.rows.size(), epochs_per_sec, bitwise ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_dynamic.json\n");
  }
  if (guard < 0.0) std::printf("guard %f\n", guard);
  return bitwise ? 0 : 1;
}
