/// \file reference_search.hpp
/// Independent optimality oracle: dynamic programming over (gate, placement)
/// states.
///
/// For small architectures (the regime where the paper's exact method is
/// applicable at all) the minimal added cost F can also be computed by a
/// shortest-path sweep over all injective logical→physical placements per
/// gate: between consecutive gates the placement may change at permutation
/// points, paying `costs.swap_cost` per SWAP of the minimal sequence
/// realising the change, and executing a CNOT against the edge direction
/// pays `costs.reverse_cost` — the weights of the resolved `CostModel`
/// (7 and 4 under the paper's gate count). This is an entirely separate
/// code path from the symbolic encoder, used by the test-suite to certify
/// that both reasoning-engine backends return truly minimal costs, and by
/// the benchmarks as a fast reference.

#pragma once

#include <vector>

#include "arch/coupling_map.hpp"
#include "arch/swap_costs.hpp"
#include "exact/types.hpp"
#include "ir/gate.hpp"

namespace qxmap::exact {

/// Result of the DP sweep.
struct ReferenceResult {
  bool feasible = false;
  long long cost_f = 0;  ///< minimal F (Eq. 5) under the given permutation points
};

/// Computes the minimal F for the CNOT skeleton `cnots` over `num_logical`
/// qubits on `cm`, allowing placement changes only at `perm_points`
/// (0-based gate indices >= 1; pass every index 1 … K-1 for the
/// unrestricted Sec. 3 optimum).
///
/// \param costs resolved cost model (swap_cost > 0)
/// \throws std::invalid_argument on inconsistent arguments; architectures
/// with more than 8 physical qubits are rejected (placement enumeration).
[[nodiscard]] ReferenceResult minimal_cost_reference(const std::vector<Gate>& cnots,
                                                     int num_logical,
                                                     const arch::CouplingMap& cm,
                                                     const arch::SwapCostTable& table,
                                                     const std::vector<std::size_t>& perm_points,
                                                     const CostModel& costs);

/// Convenience overload fetching the swaps(π) table from the process-wide
/// arch::SwapCostCache instead of taking a caller-built one.
[[nodiscard]] ReferenceResult minimal_cost_reference(const std::vector<Gate>& cnots,
                                                     int num_logical,
                                                     const arch::CouplingMap& cm,
                                                     const std::vector<std::size_t>& perm_points,
                                                     const CostModel& costs);

}  // namespace qxmap::exact
