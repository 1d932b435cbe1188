#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "graph/task_graph.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

std::mt19937_64 input_rng(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 of (seed, salt): adjacent seeds get unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return std::mt19937_64(z ^ (z >> 31));
}

void jitter_graph(giph::TaskGraph& g, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> f(1.0 - kJitter, 1.0 + kJitter);
  for (int v = 0; v < g.num_tasks(); ++v) g.task(v).compute *= f(rng);
  for (int e = 0; e < g.num_edges(); ++e) g.edge(e).bytes *= f(rng);
}

std::uint64_t digest_graph(const giph::TaskGraph& g, std::uint64_t h) {
  auto mix = [&h](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (int v = 0; v < g.num_tasks(); ++v) mix(g.task(v).compute);
  for (const giph::DataLink& l : g.edges()) mix(l.bytes);
  return h;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {
double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

CpuTimes CpuTimes::now() {
  return {clock_seconds(CLOCK_THREAD_CPUTIME_ID), clock_seconds(CLOCK_PROCESS_CPUTIME_ID)};
}

namespace {
constexpr double kProbeShare = 0.03;  // of the wall time between ticks

/// The reference computation: a dependent chain of floating-point and
/// integer multiplies with lookups into a 64 KiB table, like the mix of the
/// workloads' inner loops. About 1 ms; the result is kept so it cannot be
/// optimised away.
std::uint64_t probe_kernel(std::uint64_t seed) {
  static std::uint32_t table[1 << 14];
  std::uint64_t h = seed | 1;
  for (std::uint32_t& t : table) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    t = static_cast<std::uint32_t>(h >> 32);
  }
  double x = 1.0;
  for (int i = 0; i < 200000; ++i) {
    x = x * 1.0000001 + 0.5 / (1.0 + static_cast<double>(h & 255));
    h = (h ^ table[h & ((1 << 14) - 1)]) * 1099511628211ULL;
  }
  return h + static_cast<std::uint64_t>(x);
}
}  // namespace

SpeedProbe::SpeedProbe() : last_(Clock::now()) {}

void SpeedProbe::run_once() {
  const double t0 = CpuTimes::now().thread;
  sink_ += probe_kernel(sink_ + static_cast<std::uint64_t>(runs_));
  const double s = CpuTimes::now().thread - t0;
  fastest_ = runs_ == 0 ? s : std::min(fastest_, s);
  ++runs_;
  owed_ -= s;
}

void SpeedProbe::tick() {
  const Clock::time_point now = Clock::now();
  owed_ += kProbeShare * seconds_between(last_, now);
  while (owed_ > 0.0) run_once();
  last_ = Clock::now();
}

double SpeedProbe::slowdown() {
  if (runs_ == 0) run_once();
  return fastest_ / kProbeNominal;
}

SimCounters SimCounters::now() {
  return {giph::full_simulation_count(), giph::delta_simulation_count(),
          giph::delta_fallback_count()};
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::int64_t samples) {
  metrics.push_back({name, value, unit, samples});
}

void Report::info(const std::string& name, double value, const std::string& unit,
                  std::int64_t samples) {
  infos.push_back({name, value, unit, samples});
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  return ok;
}

void Report::check_on_thread(const CpuTimes& spent, const std::string& what) {
  // Tolerance: idle threads (an idle server's workers) and the clock reads.
  const bool ok = spent.process <= 1.02 * spent.thread + 0.005;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                " stayed on the calling thread (thread %.4f s, process %.4f s CPU)",
                spent.thread, spent.process);
  check(ok, what + buf);
}

void add_sim_counters(Report& report, const SimCounters& sims, std::int64_t ops) {
  const double per = 1.0 / static_cast<double>(ops);
  report.add("sim.full_runs", static_cast<double>(sims.full) * per, "count", ops);
  report.add("sim.delta_replays", static_cast<double>(sims.delta) * per, "count", ops);
  report.add("sim.delta_fallbacks", static_cast<double>(sims.fallbacks) * per, "count",
             ops);
  report.add("sim.delta_replay_rate", sims.replay_rate(), "ratio",
             static_cast<std::int64_t>(sims.total()));
}

}  // namespace perfbench
