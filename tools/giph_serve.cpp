// giph_serve - placement-as-a-service daemon: reads giph-request frames from
// stdin, serves each against the resident policy snapshot (or the HEFT
// baseline in degraded mode), and writes giph-response frames to stdout.
// Serving statistics go to stderr on exit.
//
//   giph_serve [--policy FILE] [--workers N] [--queue-cap N]
//              [--max-steps N] [--steps-factor K] [--sample]
//
//   --policy FILE    policy snapshot (save_policy_snapshot format). A
//                    missing or corrupt snapshot does not abort: the daemon
//                    starts in degraded mode (HEFT answers, mode=heft) and
//                    reports the load failure on stderr.
//   --workers N      worker threads, >= 1 (default 1)
//   --queue-cap N    admission queue bound, >= 1; above it requests shed
//                    (default 64)
//   --max-steps N    hard per-request search-step cap, >= 0 (default 4096)
//   --steps-factor K default budget K*|V| when a request leaves steps=0,
//                    K >= 0 (default 2)
//   --sample         sample actions instead of greedy decode
//
// Exit status: 0 after a clean end-of-stream, 2 on bad usage: an unknown
// flag, or a number that does not parse whole or is out of range. Malformed
// requests never abort the daemon; each produces a status=error response and
// the stream resynchronizes on the next request header.

#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "serve/server.hpp"

using namespace giph::serve;

namespace {

int usage() {
  std::cerr << "usage: giph_serve [--policy FILE] [--workers N] [--queue-cap N]\n"
               "                  [--max-steps N] [--steps-factor K] [--sample]\n";
  return 2;
}

/// Parses `text` whole ("5x" is an error, not 5) into `out`, which must end
/// up >= `min`; a bad value is reported with its flag and rejected.
bool parse_int(const std::string& flag, const char* text, int min, int& out) {
  try {
    std::size_t used = 0;
    const int x = std::stoi(text, &used);
    if (used == std::strlen(text) && x >= min) {
      out = x;
      return true;
    }
  } catch (const std::exception&) {
  }
  std::cerr << "giph_serve: " << flag << ": expected an integer >= " << min << ", got '"
            << text << "'\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string policy_path;
  ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--policy" && has_value) {
      policy_path = argv[++i];
    } else if (arg == "--workers" && has_value) {
      if (!parse_int(arg, argv[++i], 1, opt.workers)) return usage();
    } else if (arg == "--queue-cap" && has_value) {
      if (!parse_int(arg, argv[++i], 1, opt.queue_capacity)) return usage();
    } else if (arg == "--max-steps" && has_value) {
      if (!parse_int(arg, argv[++i], 0, opt.max_steps)) return usage();
    } else if (arg == "--steps-factor" && has_value) {
      if (!parse_int(arg, argv[++i], 0, opt.default_steps_factor)) return usage();
    } else if (arg == "--sample") {
      opt.greedy = false;
    } else {
      std::cerr << "giph_serve: unknown or incomplete option '" << arg << "'\n";
      return usage();
    }
  }

  SnapshotStore store;
  if (!policy_path.empty()) {
    std::string error;
    if (store.load(policy_path, &error)) {
      std::cerr << "giph_serve: loaded policy snapshot " << policy_path << "\n";
    } else {
      std::cerr << "giph_serve: snapshot load failed (" << error
                << "); serving degraded (heft)\n";
    }
  } else {
    std::cerr << "giph_serve: no --policy given; serving degraded (heft)\n";
  }

  PlacementServer server(opt, store);
  const std::uint64_t served = serve_stream(std::cin, std::cout, server);

  const ServerStats s = server.stats();
  std::cerr << "giph_serve: served " << served << " requests"
            << " (ok " << s.ok << ", shed " << s.shed << ", errors " << s.errors
            << ", deadline_exceeded " << s.deadline_exceeded << ", policy "
            << s.served_policy << ", heft " << s.served_heft << ")\n";
  return 0;
}
