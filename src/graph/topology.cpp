#include "graph/topology.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace giph {
namespace {

/// Shared Floyd-Warshall core: minimum-total-delay routes with ties broken
/// toward higher bottleneck bandwidth. Tracked per ordered pair: projected
/// delay/bandwidth, the physical link id of the winning direct edge, and the
/// intermediate device of the last relaxation (-1 = direct). apply_topology
/// and build_shared_link_map both derive from these tables, so the projected
/// link values and the contention routes can never disagree.
struct RouteTables {
  int m = 0;
  std::vector<double> delay;
  std::vector<double> bw;
  std::vector<int> direct_link;  ///< physical link id of the direct edge, -1 none
  std::vector<int> via;          ///< intermediate device of the route, -1 direct

  std::size_t at(int i, int j) const { return static_cast<std::size_t>(i) * m + j; }
};

RouteTables compute_routes(int m, const std::vector<PhysicalLink>& links) {
  const double inf = std::numeric_limits<double>::infinity();
  RouteTables t;
  t.m = m;
  t.delay.assign(static_cast<std::size_t>(m) * m, inf);
  t.bw.assign(static_cast<std::size_t>(m) * m, 0.0);
  t.direct_link.assign(static_cast<std::size_t>(m) * m, -1);
  t.via.assign(static_cast<std::size_t>(m) * m, -1);

  for (int k = 0; k < m; ++k) {
    t.delay[t.at(k, k)] = 0.0;
    t.bw[t.at(k, k)] = inf;
  }
  auto add_dir = [&](int a, int b, double link_bw, double link_dl, int id) {
    if (a < 0 || a >= m || b < 0 || b >= m || a == b) {
      throw std::invalid_argument("apply_topology: bad link endpoints");
    }
    if (!(link_bw > 0.0) || link_dl < 0.0) {
      throw std::invalid_argument("apply_topology: bad link parameters");
    }
    // Keep the better (lower-delay, then higher-bandwidth) parallel link.
    if (link_dl < t.delay[t.at(a, b)] ||
        (link_dl == t.delay[t.at(a, b)] && link_bw > t.bw[t.at(a, b)])) {
      t.delay[t.at(a, b)] = link_dl;
      t.bw[t.at(a, b)] = link_bw;
      t.direct_link[t.at(a, b)] = id;
      t.via[t.at(a, b)] = -1;
    }
  };
  for (std::size_t i = 0; i < links.size(); ++i) {
    const PhysicalLink& l = links[i];
    add_dir(l.a, l.b, l.bandwidth, l.delay, static_cast<int>(i));
    if (l.bidirectional) add_dir(l.b, l.a, l.bandwidth, l.delay, static_cast<int>(i));
  }

  // Floyd-Warshall on total delay; the path bandwidth is the bottleneck.
  for (int k = 0; k < m; ++k) {
    for (int i = 0; i < m; ++i) {
      if (t.delay[t.at(i, k)] == inf) continue;
      for (int j = 0; j < m; ++j) {
        if (t.delay[t.at(k, j)] == inf) continue;
        const double via = t.delay[t.at(i, k)] + t.delay[t.at(k, j)];
        const double via_bw = std::min(t.bw[t.at(i, k)], t.bw[t.at(k, j)]);
        if (via < t.delay[t.at(i, j)] ||
            (via == t.delay[t.at(i, j)] && via_bw > t.bw[t.at(i, j)])) {
          t.delay[t.at(i, j)] = via;
          t.bw[t.at(i, j)] = via_bw;
          t.via[t.at(i, j)] = k;
        }
      }
    }
  }
  return t;
}

void append_route(const RouteTables& t, int i, int j, std::vector<int>& out) {
  if (i == j) return;
  const int k = t.via[t.at(i, j)];
  if (k < 0) {
    out.push_back(t.direct_link[t.at(i, j)]);
    return;
  }
  append_route(t, i, k, out);
  append_route(t, k, j, out);
}

}  // namespace

void apply_topology(DeviceNetwork& n, const std::vector<PhysicalLink>& links,
                    double unreachable_bw, double unreachable_delay) {
  const int m = n.num_devices();
  const double inf = std::numeric_limits<double>::infinity();
  const RouteTables t = compute_routes(m, links);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i == j) continue;
      if (t.delay[t.at(i, j)] == inf) {
        n.set_link(i, j, unreachable_bw, unreachable_delay);
      } else {
        n.set_link(i, j, t.bw[t.at(i, j)], t.delay[t.at(i, j)]);
      }
    }
  }
}

SharedLinkMap build_shared_link_map(int num_devices,
                                    const std::vector<PhysicalLink>& links) {
  const double inf = std::numeric_limits<double>::infinity();
  const RouteTables t = compute_routes(num_devices, links);
  SharedLinkMap map;
  map.num_devices = num_devices;
  map.num_links = static_cast<int>(links.size());
  map.routes.assign(static_cast<std::size_t>(num_devices) * num_devices, {});
  for (int i = 0; i < num_devices; ++i) {
    for (int j = 0; j < num_devices; ++j) {
      if (i == j || t.delay[t.at(i, j)] == inf) continue;
      append_route(t, i, j, map.routes[t.at(i, j)]);
    }
  }
  return map;
}

void add_nic_links(SharedLinkMap& map, int num_devices) {
  if (map.routes.empty()) {
    map.num_devices = num_devices;
    map.routes.assign(static_cast<std::size_t>(num_devices) * num_devices, {});
  }
  validate_shared_link_map(map, num_devices, "add_nic_links");
  for (int k = 0; k < num_devices; ++k) {
    for (int l = 0; l < num_devices; ++l) {
      const std::size_t route = static_cast<std::size_t>(k) * num_devices + l;
      if (l != k) map.routes[route].push_back(map.num_links + k);
    }
  }
  map.num_links += num_devices;
}

void validate_shared_link_map(const SharedLinkMap& map, int num_devices,
                              const char* caller) {
  const std::string who(caller);
  if (map.num_devices != num_devices) {
    throw std::invalid_argument(who + ": shared_links was built for " +
                                std::to_string(map.num_devices) +
                                " devices but the network has " +
                                std::to_string(num_devices));
  }
  if (map.num_links < 0) {
    throw std::invalid_argument(who + ": shared_links has a negative link count");
  }
  const std::size_t pairs = static_cast<std::size_t>(num_devices) * num_devices;
  if (map.routes.size() != pairs) {
    throw std::invalid_argument(who + ": shared_links has " +
                                std::to_string(map.routes.size()) + " routes, not " +
                                std::to_string(pairs) + " for " +
                                std::to_string(num_devices) + " devices");
  }
  for (std::size_t r = 0; r < pairs; ++r) {
    for (const int id : map.routes[r]) {
      if (id < 0 || id >= map.num_links) {
        throw std::invalid_argument(
            who + ": shared_links route " + std::to_string(r / num_devices) + " -> " +
            std::to_string(r % num_devices) + " names link " + std::to_string(id) +
            ", outside [0, " + std::to_string(map.num_links) + ")");
      }
    }
  }
}

}  // namespace giph
