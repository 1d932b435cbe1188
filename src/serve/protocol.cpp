#include "serve/protocol.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

namespace giph::serve {
namespace {

constexpr const char* kReqKind = "giph-request";
constexpr const char* kRespKind = "giph-response";

/// Serving budgets stay bounded no matter what a client asks for.
constexpr long kMaxRequestSteps = 10'000'000;

void expect_key(LineReader& r, const char* kind, const char* key) {
  const int at = r.line();
  const std::string tok = r.token(kind, key);
  if (tok != key) {
    throw ParseError(kind, at,
                     std::string("expected field '") + key + "', got '" + tok + "'");
  }
}

bool read_flag(LineReader& r, const char* kind, const char* key) {
  expect_key(r, kind, key);
  const int at = r.line();
  const long x = r.read_int(kind, key);
  if (x != 0 && x != 1) {
    throw ParseError(kind, at,
                     std::string(key) + " must be 0 or 1, got " + std::to_string(x));
  }
  return x == 1;
}

void expect_end(LineReader& r, const char* kind) {
  const int at = r.line();
  const std::string tok = r.token(kind, "'end' terminator");
  if (tok != "end") {
    throw ParseError(kind, at, "expected 'end' terminator, got '" + tok + "'");
  }
}

std::string one_line(const std::string& s) {
  std::string out = s.empty() ? "-" : s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

const char* to_string(ResponseStatus s) noexcept {
  switch (s) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kError: return "error";
  }
  return "error";
}

const char* to_string(ServeMode m) noexcept {
  switch (m) {
    case ServeMode::kPolicy: return "policy";
    case ServeMode::kHeft: return "heft";
    case ServeMode::kNone: return "none";
  }
  return "none";
}

void write_request(std::ostream& out, const PlacementRequest& req) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kReqKind << " v1\n";
  out << "id " << one_line(req.id) << "\n";
  out << "deadline_ms " << req.deadline_ms << "\n";
  out << "steps " << req.steps << "\n";
  out << "seed " << req.seed << "\n";
  write_task_graph(out, req.graph);
  write_device_network(out, req.network);
  out << "initial " << (req.initial.has_value() ? 1 : 0) << "\n";
  if (req.initial.has_value()) write_placement(out, *req.initial);
  out << "end\n";
}

bool read_request(LineReader& r, PlacementRequest& req, bool header_consumed) {
  const char* kind = kReqKind;
  if (!header_consumed) {
    if (r.at_end()) return false;
    const int at = r.line();
    const std::string magic = r.token(kind, "header");
    const std::string version = r.token(kind, "header version");
    if (magic != kReqKind || version != "v1") {
      throw ParseError(kind, at,
                       "expected 'giph-request v1' header, got '" + magic + " " +
                           version + "'");
    }
  }
  req = PlacementRequest{};

  expect_key(r, kind, "id");
  req.id = r.token(kind, "id value");

  expect_key(r, kind, "deadline_ms");
  {
    const int at = r.line();
    req.deadline_ms = r.read_double(kind, "deadline_ms");
    if (!std::isfinite(req.deadline_ms) || req.deadline_ms < 0.0) {
      throw ParseError(kind, at, "deadline_ms must be finite and >= 0, got " +
                                     std::to_string(req.deadline_ms));
    }
  }

  expect_key(r, kind, "steps");
  {
    const int at = r.line();
    const long steps = r.read_int(kind, "steps");
    if (steps < 0 || steps > kMaxRequestSteps) {
      throw ParseError(kind, at,
                       "steps must be in [0, " + std::to_string(kMaxRequestSteps) +
                           "], got " + std::to_string(steps));
    }
    req.steps = static_cast<int>(steps);
  }

  expect_key(r, kind, "seed");
  {
    const int at = r.line();
    const std::string tok = r.token(kind, "seed");
    // Digits only: strtoull would also take a sign, and negate a '-'.
    errno = 0;
    req.seed = std::strtoull(tok.c_str(), nullptr, 10);
    if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE) {
      throw ParseError(kind, at, "seed is not an unsigned integer: '" + tok + "'");
    }
  }

  req.graph = read_task_graph(r);
  req.network = read_device_network(r);

  const bool has_initial = read_flag(r, kind, "initial");
  if (has_initial) {
    const int at = r.line();
    Placement p = read_placement(r);
    if (p.num_tasks() != req.graph.num_tasks()) {
      throw ParseError(kind, at,
                       "initial placement has " + std::to_string(p.num_tasks()) +
                           " tasks but the task graph has " +
                           std::to_string(req.graph.num_tasks()));
    }
    for (int v = 0; v < p.num_tasks(); ++v) {
      if (p.device_of(v) < 0 || p.device_of(v) >= req.network.num_devices()) {
        throw ParseError(kind, at,
                         "initial placement maps task " + std::to_string(v) +
                             " to device " + std::to_string(p.device_of(v)) +
                             ", network has " +
                             std::to_string(req.network.num_devices()) + " devices");
      }
    }
    req.initial = std::move(p);
  }

  expect_end(r, kind);
  return true;
}

bool read_request(std::istream& in, PlacementRequest& req) {
  LineReader r(in);
  return read_request(r, req);
}

void write_response(std::ostream& out, const PlacementResponse& resp) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kRespKind << " v1\n";
  out << "id " << one_line(resp.id) << "\n";
  out << "status " << to_string(resp.status) << "\n";
  out << "mode " << to_string(resp.mode) << "\n";
  out << "deadline_exceeded " << (resp.deadline_exceeded ? 1 : 0) << "\n";
  out << "makespan " << resp.makespan << "\n";
  out << "steps " << resp.steps << "\n";
  out << "queue_ms " << resp.queue_ms << "\n";
  out << "search_ms " << resp.search_ms << "\n";
  out << "error " << one_line(resp.error) << "\n";
  out << "placement " << (resp.placement.has_value() ? 1 : 0) << "\n";
  if (resp.placement.has_value()) write_placement(out, *resp.placement);
  out << "end\n";
}

bool read_response(LineReader& r, PlacementResponse& resp) {
  const char* kind = kRespKind;
  if (r.at_end()) return false;
  {
    const int at = r.line();
    const std::string magic = r.token(kind, "header");
    const std::string version = r.token(kind, "header version");
    if (magic != kRespKind || version != "v1") {
      throw ParseError(kind, at,
                       "expected 'giph-response v1' header, got '" + magic + " " +
                           version + "'");
    }
  }
  resp = PlacementResponse{};

  expect_key(r, kind, "id");
  resp.id = r.token(kind, "id value");

  expect_key(r, kind, "status");
  {
    const int at = r.line();
    const std::string s = r.token(kind, "status");
    if (s == "ok") {
      resp.status = ResponseStatus::kOk;
    } else if (s == "shed") {
      resp.status = ResponseStatus::kShed;
    } else if (s == "error") {
      resp.status = ResponseStatus::kError;
    } else {
      throw ParseError(kind, at, "unknown status '" + s + "'");
    }
  }

  expect_key(r, kind, "mode");
  {
    const int at = r.line();
    const std::string s = r.token(kind, "mode");
    if (s == "policy") {
      resp.mode = ServeMode::kPolicy;
    } else if (s == "heft") {
      resp.mode = ServeMode::kHeft;
    } else if (s == "none") {
      resp.mode = ServeMode::kNone;
    } else {
      throw ParseError(kind, at, "unknown mode '" + s + "'");
    }
  }

  resp.deadline_exceeded = read_flag(r, kind, "deadline_exceeded");

  expect_key(r, kind, "makespan");
  {
    const int at = r.line();
    resp.makespan = r.read_double(kind, "makespan");
    if (!std::isfinite(resp.makespan) || resp.makespan < 0.0) {
      throw ParseError(kind, at, "makespan must be finite and >= 0");
    }
  }

  expect_key(r, kind, "steps");
  resp.steps = static_cast<int>(r.read_int(kind, "steps"));
  expect_key(r, kind, "queue_ms");
  resp.queue_ms = r.read_double(kind, "queue_ms");
  expect_key(r, kind, "search_ms");
  resp.search_ms = r.read_double(kind, "search_ms");

  expect_key(r, kind, "error");
  {
    const std::string e = r.rest_of_line();
    resp.error = (e == "-") ? std::string{} : e;
  }

  if (read_flag(r, kind, "placement")) resp.placement = read_placement(r);
  expect_end(r, kind);
  return true;
}

bool read_response(std::istream& in, PlacementResponse& resp) {
  LineReader r(in);
  return read_response(r, resp);
}

}  // namespace giph::serve
