#pragma once

#include <string>
#include <vector>

#include "core/giph_agent.hpp"

namespace giph {

/// The agent variants the forward-only path must cover: every GNN kind,
/// GiPH-task-EFT, a sparse gpNet, and a non-default embedding width. `name`
/// is a valid gtest name suffix.
struct AgentVariant {
  std::string name;
  GiPHOptions options;
};

inline std::vector<AgentVariant> agent_variants() {
  auto with = [](auto tweak) {
    GiPHOptions o;
    o.seed = 33;
    tweak(o);
    return o;
  };
  return {
      {"GiPH", with([](GiPHOptions&) {})},
      {"GiPH_3", with([](GiPHOptions& o) { o.gnn = GnnKind::kGiPHK; })},
      {"GiPH_NE", with([](GiPHOptions& o) { o.gnn = GnnKind::kGiPHNE; })},
      {"GraphSAGE_NE", with([](GiPHOptions& o) { o.gnn = GnnKind::kGraphSAGE; })},
      {"GiPH_NE_Pol", with([](GiPHOptions& o) { o.gnn = GnnKind::kNone; })},
      {"TaskEft", with([](GiPHOptions& o) { o.use_gpnet = false; })},
      {"TopK8", with([](GiPHOptions& o) { o.gpnet_topk = 8; })},
      // dim_o = 3 runs the encoder and score head at run-time widths.
      {"GiPH_Embed3", with([](GiPHOptions& o) { o.embed_dim = 3; })},
  };
}

}  // namespace giph
