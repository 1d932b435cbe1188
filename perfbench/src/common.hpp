#pragma once

// Shared pieces of the benchmark program: command-line arguments, timing,
// sample statistics, process-wide simulator counters, and the report that
// every workload fills and main() prints.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace giph {
class TaskGraph;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}
/// CPU seconds of the calling thread and of the whole process, read together.
/// The kernel's paravirt steal accounting leaves out time the host ran other
/// machines' work on this core, which on a shared host otherwise swings
/// wall-clock figures by up to 30% from run to run. The end-to-end timings are
/// the calling thread's CPU time; that is the work's own time only while no
/// other thread works, which Report::check_on_thread() enforces.
struct CpuTimes {
  double thread = 0.0;
  double process = 0.0;

  static CpuTimes now();
  CpuTimes operator-(const CpuTimes& o) const {
    return {thread - o.thread, process - o.process};
  }
  CpuTimes& operator+=(const CpuTimes& o) {
    thread += o.thread;
    process += o.process;
    return *this;
  }
};
inline Clock::time_point after_seconds(double s) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: tiny inputs and budgets, same code paths and metrics.
  bool tiny = false;
};

/// Deterministic per-workload generator stream: the same (seed, salt) gives
/// the same inputs on every machine.
std::mt19937_64 input_rng(std::uint64_t seed, std::uint64_t salt);

/// How the workload seed makes inputs: each workload builds the fixed-shape
/// instance of the perf_* bench it mirrors, then the seed scales every task's
/// compute and every edge's bytes by an independent factor drawn uniformly
/// from [1 - kJitter, 1 + kJitter]. Seeds thus give different instances of
/// one shape, so run-to-run spread measures the machine, not the instance mix.
inline constexpr double kJitter = 0.01;
void jitter_graph(giph::TaskGraph& g, std::mt19937_64& rng);

/// FNV-1a over the task computes and edge bytes of `g`, folded into `h`;
/// printed as the run's input digest.
std::uint64_t digest_graph(const giph::TaskGraph& g, std::uint64_t h);
inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

double median(std::vector<double> xs);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> xs, double q);
double mean(const std::vector<double>& xs);
/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Snapshot of the simulator's process-wide invocation counters.
struct SimCounters {
  std::uint64_t full = 0;       ///< full event-loop runs (incl. delta fallbacks)
  std::uint64_t delta = 0;      ///< incremental delta replays
  std::uint64_t fallbacks = 0;  ///< delta calls that fell back to a full run

  static SimCounters now();
  SimCounters operator-(const SimCounters& o) const {
    return {full - o.full, delta - o.delta, fallbacks - o.fallbacks};
  }
  SimCounters operator+(const SimCounters& o) const {
    return {full + o.full, delta + o.delta, fallbacks + o.fallbacks};
  }
  std::uint64_t total() const { return full + delta; }
  /// Share of simulator invocations that were delta replays.
  double replay_rate() const {
    return total() == 0 ? 0.0 : static_cast<double>(delta) / static_cast<double>(total());
  }
};

/// Everything one run reports: correctness, op counts, and named metrics.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 0;
  };

  /// Records a metric for the JSON result line and the human-readable table.
  void add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples);
  /// Printed with unit and sample count but not part of the JSON result
  /// (workload-specific names of the generic end-to-end metrics, and
  /// deterministic figures that have no bound).
  void info(const std::string& name, double value, const std::string& unit,
            std::int64_t samples);
  /// Records an output check; a failure makes the run incorrect. Returns `ok`
  /// so the caller can also count the op it belongs to as failed.
  bool check(bool ok, const std::string& what);
  /// Checks that the process spent no more CPU time than the calling thread
  /// in the timed sections summed in `spent`: work moved onto other threads
  /// would otherwise read as a speedup.
  void check_on_thread(const CpuTimes& spent, const std::string& what);
  /// Counts one attempted op, failed unless `ok`.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  bool correct = true;
  std::uint64_t input_digest = 0;  ///< identifies the generated inputs
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> infos;
};

/// Adds sim.full_runs, sim.delta_replays and sim.delta_fallbacks per op, and
/// sim.delta_replay_rate, for `sims` counted over `ops` workload ops.
void add_sim_counters(Report& report, const SimCounters& sims, std::int64_t ops);

/// Accumulated wall time and call count of one traced layer.
struct Span {
  double seconds = 0.0;
  std::int64_t calls = 0;

  void add(double s) {
    seconds += s;
    ++calls;
  }
  double mean_us() const { return calls == 0 ? 0.0 : 1e6 * seconds / calls; }
};

/// Runs `f`, adds its wall time to `span`, and returns its result.
template <class F>
auto timed(Span& span, F&& f) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    span.add(seconds_since(t0));
  } else {
    auto r = f();
    span.add(seconds_since(t0));
    return r;
  }
}

/// Machine-speed probe. Other jobs on a shared host slow this machine's CPU
/// time down by up to 40% for minutes at a time, longer than a run, so taking
/// the fastest of a run's repeats cannot remove it. A fixed reference
/// computation, part of the benchmark and independent of the library, runs
/// between the timed ops of the untraced run (about 3% of its time); its
/// fastest CPU time in the run says how slow the machine was. The bounded
/// timings are scaled by it to the speed at which the probe takes
/// kProbeNominal seconds, its time on an idle 4-core x86-64 KVM guest (Xeon,
/// AVX-512) where this benchmark was defined: there, scaled equals measured.
inline constexpr double kProbeNominal = 0.70e-3;

class SpeedProbe {
 public:
  SpeedProbe();
  /// Called between timed ops: runs the probe until it has taken its share
  /// of the wall time since the previous call.
  void tick();
  /// Fastest probe time over kProbeNominal; runs the probe first if it never
  /// ran.
  double slowdown();
  /// `cpu_s` measured on this machine, as the reference machine would take.
  double to_reference(double cpu_s) { return cpu_s / slowdown(); }
  std::int64_t runs() const { return runs_; }

 private:
  void run_once();

  Clock::time_point last_;
  double owed_ = 0.0;
  double fastest_ = 0.0;
  std::int64_t runs_ = 0;
  std::uint64_t sink_ = 0;
};

/// Set-up time, the fastest of many set-ups (the best-of convention of the
/// throughput figures), in process CPU time because set-up may start worker
/// threads. Other jobs on a shared machine slow this one down in episodes of
/// a few seconds, so a run times set-up in two bursts, at its start and at
/// its end: each burst repeats `setup` until kSetupBurst CPU seconds have
/// accumulated, at least kMinSetups times.
inline constexpr double kSetupBurst = 0.25;
inline constexpr int kMinSetups = 3;

struct SetupTime {
  double seconds = 0.0;
  std::int64_t runs = 0;

  /// One burst. The caller keeps the last result through `setup` itself.
  template <class F>
  void burst(F&& setup) {
    double total = 0.0;
    for (int i = 0; i < kMinSetups || total < kSetupBurst; ++i) {
      const double t0 = CpuTimes::now().process;
      setup();
      const double s = CpuTimes::now().process - t0;
      seconds = runs == 0 ? s : std::min(seconds, s);
      total += s;
      ++runs;
    }
  }
};

// The four workloads. Each fills `report` with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run).
void run_serve16(const Args& args, Report& report);
void run_scale1000(const Args& args, Report& report);
void run_train20(const Args& args, Report& report);
void run_stream50(const Args& args, Report& report);

}  // namespace perfbench
