/// \file sabre_mapper.hpp
/// SABRE-style swap mapper (Li, Ding, Xie — ASPLOS'19, the paper's
/// reference [13]) — the third heuristic reference point.
///
/// Differences from the layer mappers: routing decisions are made per
/// *front layer* of a dependency DAG with a lookahead term over the
/// extended set of soon-to-be-executable CNOTs, and the initial layout is
/// improved by bidirectional passes (map the circuit, then map its reverse
/// starting from the final layout, and repeat — the final layout of each
/// pass seeds the next).

#pragma once

#include <cstdint>

#include "arch/coupling_map.hpp"
#include "exact/types.hpp"
#include "ir/circuit.hpp"

namespace qxmap::heuristic {

/// Options for the SABRE-style mapper.
struct SabreOptions {
  int bidirectional_rounds = 3;  ///< forward/backward layout-refinement passes
  double extended_set_weight = 0.5;  ///< lookahead weight W of the SABRE score
  int extended_set_size = 20;       ///< how many future CNOTs the lookahead sees
  double decay = 0.001;             ///< per-use decay added to a qubit's swap score
  std::uint64_t seed = 1;           ///< tie-breaking randomness
  /// Objective weights (resolved against the architecture); reported via
  /// MappingResult::objective_cost. Routing decisions are distance-driven
  /// and unaffected.
  exact::CostModel costs;
  bool verify = true;               ///< verify as exact::RouteBuilder::finish does
};

/// Maps `circuit` to `cm`; engine_name is "sabre", status Feasible.
/// \throws std::invalid_argument on oversized circuits or disconnected
/// coupling graphs.
[[nodiscard]] exact::MappingResult map_sabre(const Circuit& circuit, const arch::CouplingMap& cm,
                                             const SabreOptions& options = {});

}  // namespace qxmap::heuristic
