#pragma once

#include <vector>

#include "graph/device_network.hpp"

namespace giph {

/// A physical (sparse) communication link between two devices.
struct PhysicalLink {
  int a = -1;
  int b = -1;
  double bandwidth = 1.0;  ///< bytes per time unit
  double delay = 0.0;
  bool bidirectional = true;
};

/// Projects a sparse physical topology onto the fully-connected link model
/// the rest of the library uses (Section 3 notes that complex topologies are
/// handled "by attaching very high communication losses to links that do not
/// exist"). Every device pair's effective link is the minimum-total-delay
/// route through the physical links, with the path bandwidth equal to the
/// bottleneck link's bandwidth. Unreachable pairs get `unreachable_bw` /
/// `unreachable_delay`.
void apply_topology(DeviceNetwork& n, const std::vector<PhysicalLink>& links,
                    double unreachable_bw = 1e-6, double unreachable_delay = 1e9);

/// Which contended links each device pair's traffic crosses. Feed to
/// SimOptions::shared_links: a remote transfer waits until every link on its
/// route is free, then reserves all of them for its whole duration, so
/// concurrent flows crossing one link queue on it instead of magically
/// sharing infinite capacity. build_shared_link_map fills it with the
/// physical links of the routes apply_topology projects; add_nic_links adds
/// one NIC link per sending device.
struct SharedLinkMap {
  int num_devices = 0;
  int num_links = 0;  ///< link ids are 0 .. num_links - 1
  /// routes[k * num_devices + l]: ids of the links the k -> l route crosses.
  /// Physical links come first, in path order (ids index the build links
  /// vector); they are absent for k == l and for unreachable pairs (which
  /// apply_topology punishes with near-zero bandwidth instead). A
  /// bidirectional physical link keeps one id for both directions, so
  /// opposing flows contend for it too. The simulator never reads the k == k
  /// routes: local transfers bypass every link.
  std::vector<std::vector<int>> routes;

  const std::vector<int>& links_on(int k, int l) const {
    return routes[static_cast<std::size_t>(k) * num_devices + l];
  }
};

/// Builds the route map matching apply_topology's projection over the same
/// `links` vector (same tie-breaking, so the projected delay/bandwidth of
/// every pair equals the sum/bottleneck over its mapped route). Throws
/// std::invalid_argument on the same malformed links apply_topology rejects.
SharedLinkMap build_shared_link_map(int num_devices,
                                    const std::vector<PhysicalLink>& links);

/// NIC contention: appends link num_links + k to every k -> l route with
/// l != k, so each device's remote sends go out one at a time, back to back,
/// on top of any physical links the route already crosses. An empty map (no
/// routes) is first sized to `num_devices` with no links. Throws
/// std::invalid_argument when a sized map was built for another device count.
void add_nic_links(SharedLinkMap& map, int num_devices);

/// Throws std::invalid_argument, prefixed with `caller`, unless `map` fits a
/// `num_devices`-device network: num_devices matches, routes holds
/// num_devices^2 entries, and every link id lies in [0, num_links). The
/// simulator, the oracle and the invariant checker call it before indexing
/// per-link state by the map's ids.
void validate_shared_link_map(const SharedLinkMap& map, int num_devices,
                              const char* caller);

}  // namespace giph
