#pragma once

#include "core/gpnet.hpp"
#include "nn/matrix.hpp"
#include "sim/schedule_index.hpp"
#include "sim/simulator.hpp"

namespace giph {

/// Per-instance normalization scales: gpNet features are divided by these so
/// the policy sees dimensionless inputs and generalizes across device
/// networks with different absolute speeds/bandwidths (Section 4.2.1 requires
/// a representation valid for arbitrary (G, N)).
struct FeatureScales {
  double compute = 1.0;  ///< mean task compute requirement
  double speed = 1.0;    ///< mean device speed
  double w = 1.0;        ///< mean compute time over feasible (task, device) pairs
  double bytes = 1.0;    ///< mean edge data volume
  double bw = 1.0;       ///< mean link bandwidth
  double dl = 1.0;       ///< mean link delay
  double c = 1.0;        ///< mean communication time over edges
};

FeatureScales compute_feature_scales(const TaskGraph& g, const DeviceNetwork& n,
                                     const LatencyModel& lat);

/// Composed gpNet features (Appendix B.7):
/// node (v_i, d_k), 4 dims: compute requirement C_i, device speed SP_k,
///   expected compute time w_ik, start-time potential of v_i on d_k;
/// edge ((v_i,d_k),(v_j,d_l)), 4 dims: data volume B_ij, inverse relative
///   bandwidth of (d_k,d_l), link delay DL_kl, expected communication time.
struct GpNetFeatures {
  nn::Matrix node;  ///< |V_H| x 4
  nn::Matrix edge;  ///< |E_H| x 4
};

inline constexpr int kNodeFeatureDim = 4;
inline constexpr int kEdgeFeatureDim = 4;

/// `sched` must be the expected schedule of `placement` (it provides actual
/// start times for the start-time potential). With include_potential = false
/// the fourth node feature is zeroed (ablation of Fig. 15). The potential's
/// per-(task, device) ESTs come from one batched est_sweep, bitwise equal to
/// the per-query earliest_start_on_queued scan. `index` is not consulted and
/// nothing builds one; pass nullptr (the parameter stays for source
/// compatibility).
///
/// `sweep`, when non-null, must hold the result of est_sweep(sched, g, n,
/// placement, lat, *sweep); the potential feature then reads it directly
/// instead of re-running the O(V * D) sweep — the caller that already swept
/// for build_gpnet_topk shares one sweep per step. Values are identical
/// either way.
GpNetFeatures build_gpnet_features(const GpNet& net, const TaskGraph& g,
                                   const DeviceNetwork& n, const Placement& placement,
                                   const LatencyModel& lat, const Schedule& sched,
                                   const FeatureScales& scales,
                                   bool include_potential = true,
                                   const ScheduleIndex* index = nullptr,
                                   const EstSweepWorkspace* sweep = nullptr);

/// In-place form of build_gpnet_features: writes the same values into `out`,
/// reusing its matrices.
void build_gpnet_features_into(GpNetFeatures& out, const GpNet& net, const TaskGraph& g,
                               const DeviceNetwork& n, const Placement& placement,
                               const LatencyModel& lat, const Schedule& sched,
                               const FeatureScales& scales, bool include_potential,
                               const EstSweepWorkspace* sweep);

/// Node features with the mean of each node's outgoing edge features appended
/// (8 dims), used by the edge-feature-free variants GiPH-NE / GraphSAGE-NE /
/// GiPH-NE-Pol (Appendix B.6).
nn::Matrix append_mean_out_edge_features(const GpNet& net, const GpNetFeatures& f);
/// The same merge over any view (the gpNet, or the task graph for
/// GiPH-task-EFT), written into `out`: row u is `node` row u followed by the
/// mean of `edge` over view.out_edges[u] in list order (zeros for none).
void append_mean_out_edge_features(const GraphView& view, const nn::Matrix& node,
                                   const nn::Matrix& edge, nn::Matrix& out);

/// Per-task features over the raw task graph G for GiPH-task-EFT (which does
/// not use gpNet): current compute requirement, current device speed, current
/// compute time, and the best achievable start-time improvement over feasible
/// relocations. Edge features describe the currently placed data links.
struct TaskGraphFeatures {
  nn::Matrix node;  ///< |V| x 4
  nn::Matrix edge;  ///< |E| x 4
};

/// Writes the task-graph features into `out`, reusing its matrices.
void build_task_graph_features_into(TaskGraphFeatures& out, const TaskGraph& g,
                                    const DeviceNetwork& n, const Placement& placement,
                                    const LatencyModel& lat, const Schedule& sched,
                                    const std::vector<std::vector<int>>& feasible,
                                    const FeatureScales& scales);

}  // namespace giph
