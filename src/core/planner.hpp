// Planner interface.
//
// A planner turns (network, fabric, stream statistics) into a NetworkPlan.
// MOCHA's morph controller and the fixed-strategy baselines all implement
// this, so the accelerator runner is strategy-agnostic.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "dataflow/plan.hpp"
#include "dataflow/streams.hpp"
#include "fabric/config.hpp"
#include "model/tech.hpp"
#include "nn/generate.hpp"

namespace mocha::core {

/// Optimization objective for plan selection.
enum class Objective { Cycles, Energy, EnergyDelayProduct };

const char* objective_name(Objective objective);
/// Inverse of objective_name(): "cycles", "energy" or "edp"; nullopt for
/// any other name.
std::optional<Objective> objective_from_name(std::string_view name);

class Planner {
 public:
  virtual ~Planner() = default;

  virtual std::string name() const = 0;

  /// Produces a plan for every layer. `stats` is index-aligned with
  /// net.layers (assumed or measured sparsities). `batch` is the number of
  /// inputs processed together (weight reuse across the batch changes which
  /// plans win, so the planner must know it).
  virtual dataflow::NetworkPlan plan(
      const nn::Network& net, const fabric::FabricConfig& config,
      const std::vector<dataflow::LayerStreamStats>& stats,
      nn::Index batch = 1) const = 0;
};

/// Builds the per-layer stream statistics a planner/simulation needs from
/// the assumed sparsity profile.
std::vector<dataflow::LayerStreamStats> assumed_stats(
    const nn::Network& net, const nn::SparsityProfile& profile);

}  // namespace mocha::core
