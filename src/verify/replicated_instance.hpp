#pragma once

// The frame-replicated instance of a streaming run, built from first
// principles for the verification layer: the streaming oracle replays it and
// check_stream_result holds a streaming schedule to the one-shot invariants
// over it. Independent of the simulator's own replication. Internal header:
// not part of the public API.

#include "graph/placement.hpp"
#include "graph/task_graph.hpp"
#include "sim/latency_model.hpp"

namespace giph::verify_detail {

/// Writes F copies of a placed task graph into (rep, rep_p): task f * V + v
/// is frame f's copy of base task v and edge f * E + e frame f's copy of
/// base edge e (no cross-frame edges); every copy runs on its base task's
/// device. A placement sized for another graph leaves every copy unplaced
/// (-1), which feasibility checks reject.
inline void replicate_frames(const TaskGraph& g, const Placement& p, int frames,
                             TaskGraph& rep, Placement& rep_p) {
  const int nv = g.num_tasks();
  const int ne = g.num_edges();
  rep = TaskGraph{};
  rep_p = Placement(frames * nv);
  for (int f = 0; f < frames; ++f) {
    for (int v = 0; v < nv; ++v) {
      rep.add_task(g.task(v));
      rep_p.set(f * nv + v, p.num_tasks() == nv ? p.device_of(v) : -1);
    }
  }
  for (int f = 0; f < frames; ++f) {
    for (int e = 0; e < ne; ++e) {
      const DataLink& link = g.edge(e);
      rep.add_edge(f * nv + link.src, f * nv + link.dst, link.bytes);
    }
  }
}

/// Consults a base-graph latency model with replicated ids: task v and edge
/// e map back to base task v % V and base edge e % E.
class ReplicatedLatencyModel final : public LatencyModel {
 public:
  ReplicatedLatencyModel(const LatencyModel& base, const TaskGraph& base_graph)
      : base_(base),
        g_(base_graph),
        nv_(base_graph.num_tasks()),
        ne_(base_graph.num_edges()) {}

  double compute_time(const TaskGraph&, const DeviceNetwork& n, int v,
                      int k) const override {
    return base_.compute_time(g_, n, v % nv_, k);
  }

  double comm_time(const TaskGraph&, const DeviceNetwork& n, int e, int k,
                   int l) const override {
    return base_.comm_time(g_, n, e % ne_, k, l);
  }

  double comm_startup(const TaskGraph&, const DeviceNetwork& n, int e, int k,
                      int l) const override {
    return base_.comm_startup(g_, n, e % ne_, k, l);
  }

 private:
  const LatencyModel& base_;
  const TaskGraph& g_;
  int nv_;
  int ne_;
};

}  // namespace giph::verify_detail
