/// \file astar_mapper.hpp
/// Layer-based A* mapper in the spirit of Zulehner/Paler/Wille (TCAD'18,
/// reference [22] of the paper) — the second heuristic reference point.
///
/// For each layer of gates on pairwise-disjoint qubits: if a CNOT is not
/// executable under the current placement, run an A* search whose states
/// are placements, whose actions are SWAPs on coupling edges (cost 7 each),
/// and whose heuristic is the sum over the layer's CNOTs of the cheapest
/// remaining routing cost (7·(hops-1) plus the direction penalty) — fast
/// and goal-directed but, like the original, not guaranteed minimal
/// globally, since layers are handled one at a time.

#pragma once

#include "arch/coupling_map.hpp"
#include "exact/types.hpp"
#include "ir/circuit.hpp"

namespace qxmap::heuristic {

/// Options for the A* mapper.
struct AStarOptions {
  int max_expansions = 500000;  ///< search-node budget per layer
  /// Objective weights (resolved against the architecture): the per-layer
  /// search expands SWAPs at the resolved swap cost and reports
  /// MappingResult::objective_cost in the same units.
  exact::CostModel costs;
  bool verify = true;           ///< verify as exact::RouteBuilder::finish does
};

/// Maps `circuit` to `cm`; engine_name is "astar", status Feasible.
/// \throws std::invalid_argument on oversized circuits, disconnected
/// coupling graphs, or when a layer exhausts `max_expansions` or the fixed
/// 128 MiB bound on one layer's live search memory ("search budget
/// exhausted" either way).
[[nodiscard]] exact::MappingResult map_astar(const Circuit& circuit, const arch::CouplingMap& cm,
                                             const AStarOptions& options = {});

}  // namespace qxmap::heuristic
