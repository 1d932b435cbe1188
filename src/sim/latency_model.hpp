#pragma once

#include "graph/device_network.hpp"
#include "graph/task_graph.hpp"

namespace giph {

/// Expected computation / communication latency model (Appendix B.5).
///
/// Implementations return *expected* times; the simulator applies
/// multiplicative uniform noise on top when requested.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Modification stamp (see graph/stamp.hpp): fresh at construction, never
  /// repeated process-wide. Models keep their parameters for life, so sweep
  /// caches can key on "same model, same parameters" exactly.
  std::uint64_t stamp() const noexcept { return stamp_; }

  /// Expected execution time w_{v,k} of task v on device k.
  virtual double compute_time(const TaskGraph& g, const DeviceNetwork& n, int v,
                              int k) const = 0;

  /// Expected transmission time c of edge e with its source on device k and
  /// destination on device l. Must be 0 when k == l.
  virtual double comm_time(const TaskGraph& g, const DeviceNetwork& n, int e, int k,
                           int l) const = 0;

  /// The startup (bandwidth-independent) portion of comm_time: the part that
  /// does NOT scale when the link's bandwidth changes. Must be 0 when k == l
  /// and must never exceed comm_time for the same arguments. The simulator's
  /// dynamic-network machinery (NetworkTrace, and kLinkDegrade through it)
  /// uses this to rescale only the wire time of in-flight transfers. The
  /// default matches Eq. 3's DL_kl term.
  virtual double comm_startup(const TaskGraph&, const DeviceNetwork& n, int,
                              int k, int l) const {
    if (k == l) return 0.0;
    return n.delay(k, l);
  }

  /// Fills out[l] = comm_time(g, n, e, k, l) for every destination device l.
  /// Batched form of comm_time for the candidate-scoring sweeps (one virtual
  /// call per edge instead of one per edge-device pair); overrides must stay
  /// bitwise identical to per-element comm_time calls, which this default
  /// guarantees by construction.
  virtual void comm_time_row(const TaskGraph& g, const DeviceNetwork& n, int e,
                             int k, double* out) const {
    const int nd = n.num_devices();
    for (int l = 0; l < nd; ++l) out[l] = comm_time(g, n, e, k, l);
  }

  /// Fills out[k] = compute_time(g, n, v, k) for every device k. Same batched
  /// contract as comm_time_row.
  virtual void compute_time_row(const TaskGraph& g, const DeviceNetwork& n,
                                int v, double* out) const {
    const int nd = n.num_devices();
    for (int k = 0; k < nd; ++k) out[k] = compute_time(g, n, v, k);
  }

 private:
  std::uint64_t stamp_ = detail::next_structure_stamp();
};

/// The paper's latency model (Eqs. 2-3), extended with the case-study affine
/// term: w_{v,k} = C_v / SP_k + S_k and c = DL_kl + B_e / BW_kl.
/// Synthetic devices have S_k = 0, reducing to Eq. 2 exactly.
class DefaultLatencyModel final : public LatencyModel {
 public:
  double compute_time(const TaskGraph& g, const DeviceNetwork& n, int v,
                      int k) const override {
    return g.task(v).compute / n.device(k).speed + n.device(k).startup;
  }

  double comm_time(const TaskGraph& g, const DeviceNetwork& n, int e, int k,
                   int l) const override {
    if (k == l) return 0.0;
    return n.delay(k, l) + g.edge(e).bytes / n.bandwidth(k, l);
  }

  // Same expression as comm_time evaluated over the raw link rows (the same
  // stored doubles delay()/bandwidth() return), without per-element bounds
  // checks or virtual dispatch, so the division loop pipelines. The diagonal
  // placeholder (delay 0, bandwidth 1) makes the unconditional pass safe; the
  // l == k slot is then overwritten with comm_time's exact 0.0. Bitwise
  // identical to per-element comm_time calls by construction.
  void comm_time_row(const TaskGraph& g, const DeviceNetwork& n, int e, int k,
                     double* out) const override {
    const double bytes = g.edge(e).bytes;
    const int nd = n.num_devices();
    const double* dl = n.delay_row(k);
    const double* bw = n.bandwidth_row(k);
    for (int l = 0; l < nd; ++l) out[l] = dl[l] + bytes / bw[l];
    out[k] = 0.0;
  }

  // Same expression as compute_time (bitwise identical by construction).
  void compute_time_row(const TaskGraph& g, const DeviceNetwork& n, int v,
                        double* out) const override {
    const double compute = g.task(v).compute;
    const int nd = n.num_devices();
    for (int k = 0; k < nd; ++k) {
      out[k] = compute / n.device(k).speed + n.device(k).startup;
    }
  }
};

}  // namespace giph
