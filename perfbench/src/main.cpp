// Benchmark program: runs one named workload for a time budget and prints a
// human-readable table followed by one JSON result line.
//
//   giph_perfbench --workload serve16|scale1000|train20|stream50
//                  --seed N --seconds S --trace 0|1 [--size tiny]
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 replays the workload through timed calls into each layer's public
// functions and reports the per-layer metrics instead. Exit code 1 on any
// failed output check or bad argument.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: giph_perfbench --workload serve16|scale1000|train20|"
               "stream50 --seed N --seconds S --trace 0|1 [--size tiny]\n",
               why);
  std::exit(1);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::size_t used = 0;
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
        used = value.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value, &used);
        if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        used = value.size();
      } else if (flag == "--size") {
        if (value != "tiny" && value != "full") usage("--size takes tiny or full");
        a.tiny = value == "tiny";
        used = value.size();
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
    if (used != value.size()) usage(("bad value for " + flag).c_str());
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

void print_row(const Report::Metric& m) {
  std::printf("  %-34s %16.6g %-6s n=%lld\n", m.name.c_str(), m.value, m.unit.c_str(),
              static_cast<long long>(m.samples));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report;
  try {
    if (args.workload == "serve16") {
      run_serve16(args, report);
    } else if (args.workload == "scale1000") {
      run_scale1000(args, report);
    } else if (args.workload == "train20") {
      run_train20(args, report);
    } else if (args.workload == "stream50") {
      run_stream50(args, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  // Only the metrics this workload measured; run.py checks them against
  // BENCHMARK.json.
  for (const Report::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  }

  std::printf("workload %s  seed %llu  seconds %g  trace %d  build %s  nproc %u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());
  std::printf("inputs %016llx\n", static_cast<unsigned long long>(report.input_digest));
  for (const Report::Metric& m : report.metrics) print_row(m);
  if (!report.infos.empty()) std::printf("  -- workload-specific names and figures\n");
  for (const Report::Metric& m : report.infos) print_row(m);
  const double attempted = static_cast<double>(report.attempted);
  print_row({"failed_frac", attempted == 0.0 ? 0.0 : report.failed / attempted, "ratio",
             report.attempted});

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              report.correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct && report.attempted > 0 ? 0 : 1;
}
