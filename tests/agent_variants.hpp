#pragma once

#include <string>
#include <vector>

#include "core/giph_agent.hpp"

namespace giph {

/// The agent variants the forward-only path must cover: every GNN kind,
/// GiPH-task-EFT, and a sparse gpNet. `name` is a valid gtest name suffix.
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
  };
}

}  // namespace giph
