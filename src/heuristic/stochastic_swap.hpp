/// \file stochastic_swap.hpp
/// Re-implementation of the layer-based randomized swap mapper that shipped
/// with IBM's Qiskit SDK 0.4/0.5 — the "IBM [12]" baseline of Table 1.
///
/// Per layer of gates on disjoint qubits: if some CNOT of the layer is not
/// executable under the current placement, run `trials` randomized greedy
/// searches, each perturbing the squared-distance cost matrix with
/// multiplicative noise and repeatedly applying the cheapest
/// cost-decreasing SWAP until the whole layer becomes executable; the
/// successful trial with the fewest SWAPs wins. If every trial fails, the
/// layer is serialized gate-by-gate and, as a final deterministic fallback,
/// a single CNOT is routed along a shortest path. Direction mismatches are
/// repaired with 4 H gates at emission, exactly like Qiskit's
/// direction_mapper. The paper ran this mapper 5 times per benchmark and
/// kept the best result — use `runs` for that protocol.

#pragma once

#include <cstdint>

#include "arch/coupling_map.hpp"
#include "exact/types.hpp"
#include "ir/circuit.hpp"

namespace qxmap::heuristic {

/// Options for the stochastic swap mapper.
struct StochasticSwapOptions {
  std::uint64_t seed = 1;  ///< RNG stream seed (deterministic per seed)
  int trials = 20;         ///< randomized trials per blocked layer
  int runs = 1;            ///< independent end-to-end runs; best kept
  /// Objective weights (resolved against the architecture); reported via
  /// MappingResult::objective_cost and used to pick the best of `runs`.
  exact::CostModel costs;
  bool verify = true;      ///< verify as exact::RouteBuilder::finish does
};

/// Maps `circuit` to `cm`. The result's engine_name is "qiskit-stochastic";
/// status is Feasible (heuristic: no optimality claim).
/// \throws std::invalid_argument if the circuit needs more qubits than `cm`
/// has or the coupling graph is disconnected.
[[nodiscard]] exact::MappingResult map_stochastic_swap(const Circuit& circuit,
                                                       const arch::CouplingMap& cm,
                                                       const StochasticSwapOptions& options = {});

}  // namespace qxmap::heuristic
