/// \file types.hpp
/// Shared option/result types of the exact mapper.

#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "reason/engine.hpp"

namespace qxmap::arch {
class CouplingMap;
}

namespace qxmap::exact {

/// Where re-mapping permutations are allowed (Sec. 4.2).
enum class PermutationStrategy {
  All,           ///< before every gate — guarantees minimality (Sec. 3)
  DisjointQubits,///< before each cluster of gates on disjoint qubit sets
  OddGates,      ///< before gates with odd (1-based) index
  QubitTriangle, ///< before each cluster acting on <= 3 qubits
};

[[nodiscard]] std::string to_string(PermutationStrategy s);

/// What the integer objective weights represent.
enum class CostObjective {
  GateCount,      ///< the paper's Eq. (5): added elementary operations
  ErrorWeighted,  ///< scaled -log10 success probability of the added gates
};

[[nodiscard]] std::string to_string(CostObjective o);

/// Cost model of Sec. 2.2 (Fig. 3), generalised with a pluggable objective.
///
/// Under `GateCount` a SWAP costs 7 elementary operations (3 when every
/// coupling is bidirected and the SWAP decomposes into 3 CNOTs) and a
/// direction switch costs 4 H gates. `swap_cost` defaults to -1, meaning
/// "derive from the architecture".
///
/// Under `ErrorWeighted` the weights instead measure the reliability lost by
/// the inserted gates: weight = round(error_scale · -log10 Π (1 - eᵢ)) over
/// the elementary gates of the construct (3 CNOTs + 4 H for a one-directional
/// SWAP, 3 CNOTs for a bidirected one, 4 H for a reversal), clamped to ≥ 1.
/// -log10 is additive across gates, so minimising the summed integer weights
/// minimises the added failure probability. The CNOT/single-qubit rates come
/// from the architecture's calibration data (`CouplingMap::error_rates()`,
/// mean over edges/qubits) when present, else from the scalar defaults below
/// (which match sim::NoiseModel).
///
/// All solver plumbing (encoder objective, DP reference, heuristic scoring,
/// shared bounds) consumes a *resolved* model — concrete positive integer
/// weights — produced by `resolved()`.
struct CostModel {
  CostObjective objective = CostObjective::GateCount;
  int swap_cost = -1;
  int reverse_cost = 4;
  /// ErrorWeighted fallbacks when the architecture has no calibration data.
  double cnot_error = 2e-2;
  double single_qubit_error = 1e-3;
  /// ErrorWeighted resolution of the -log10 scale; larger = finer rounding.
  int error_scale = 1000;

  /// Returns a copy with concrete integer `swap_cost`/`reverse_cost` for
  /// `cm` per the objective (GateCount keeps explicit overrides).
  /// \throws std::invalid_argument on rates outside [0,1) or a non-positive
  ///         error_scale.
  [[nodiscard]] CostModel resolved(const arch::CouplingMap& cm) const;

  /// Objective value of a result with the given insertion counts.
  /// \throws std::logic_error when called on an unresolved model.
  [[nodiscard]] long long result_cost(int swaps, int reversed) const;
};

/// Options for the exact mapper.
struct ExactOptions {
  reason::EngineKind engine = reason::EngineKind::Z3;
  PermutationStrategy strategy = PermutationStrategy::All;
  /// Sec. 4.1: solve one instance per connected n-subset of physical qubits
  /// instead of one instance over all m.
  bool use_subsets = false;
  /// This request's shard-concurrency cap on the process-wide executor
  /// (exact/shard_executor.hpp): at most this many of the request's subset
  /// instances solve simultaneously (0 = hardware concurrency). The
  /// executor grows its pool so an explicit cap is honoured even on fewer
  /// cores, like the per-call pools it replaced. Instances pop
  /// hardest-first (sparsest induced coupling subgraph). Each executing
  /// thread owns its reasoning engine — the CDCL solver is not thread-safe —
  /// and publishes its best model cost to a shared bound that every other
  /// shard polls at engine checkpoints, mid-solve, to strengthen its
  /// Eq. (5) upper bound (cooperative tightening). The reduction is
  /// deterministic (lowest cost, then lowest subset index), so every cap
  /// yields bit-identical results as long as the solver budget does not
  /// expire mid-search. See docs/concurrency.md.
  int num_threads = 0;
  /// Total solver budget, shared across subset instances as one deadline:
  /// each shard grants its next instance an equal share of the time *left*,
  /// so slack from instances that finish early (or are skipped) flows to
  /// the hard ones instead of expiring unused. The canonical re-derivation
  /// of the winning instance (which keeps results thread-count invariant)
  /// may spend up to one nominal per-instance share on top of this total.
  /// Budget expiry is outside the bit-identical guarantee either way (see
  /// docs/concurrency.md).
  std::chrono::milliseconds budget{10000};
  CostModel costs;
  /// Verify the result (GF(2) skeleton always; statevector when the
  /// architecture has at most exact::kDeepVerifyMaxQubits = 8 qubits).
  bool verify = true;
};

/// Outcome of a mapping run.
struct MappingResult {
  /// Fully expanded physical circuit: single-qubit gates + CNOTs on allowed
  /// edges only (SWAPs expanded per Fig. 3, reversed CNOTs H-conjugated).
  Circuit mapped;
  /// Routing skeleton: the original CNOTs (logical orientation) on physical
  /// qubits plus SWAP pseudo-gates — input for GF(2) verification.
  Circuit routed_skeleton;
  std::vector<int> initial_layout;  ///< logical j -> physical qubit before gate 1
  std::vector<int> final_layout;    ///< logical j -> physical qubit at the end
  long long cost_f = 0;             ///< added cost F (Eq. 5) = |mapped| - |original|
  /// The optimised objective: equals swap_cost·swaps + reverse_cost·reversed
  /// under the resolved cost model. Under CostObjective::GateCount with
  /// default weights this coincides with cost_f; under ErrorWeighted it is
  /// the scaled -log10 success-probability loss of the inserted gates.
  long long objective_cost = 0;
  std::string objective = "gate_count";  ///< to_string(CostObjective) of the request
  int swaps_inserted = 0;
  int cnots_reversed = 0;
  reason::Status status = reason::Status::Unknown;
  double seconds = 0.0;
  int instances_solved = 0;         ///< subset instances contributing to the reduction
                                    ///< (Sec. 4.1); once a subset proves cost 0, all
                                    ///< later subsets are skipped — they can at best tie
                                    ///< and lose the deterministic index tie-break
  int permutation_points = 0;       ///< |G'| + 1 (the paper's |G'| column counts
                                    ///< the free initial mapping too)
  long long bound_polls = 0;        ///< shared-bound consultations made by the
                                    ///< shards' engines mid-solve (cooperative
                                    ///< tightening); timing-dependent — an
                                    ///< observability number, NOT covered by the
                                    ///< determinism guarantee
  long long bound_tightenings = 0;  ///< polls that strictly tightened a shard's
                                    ///< enforced Eq. (5) bound mid-flight;
                                    ///< timing-dependent, like bound_polls
  std::string engine_name;
  bool verified = false;
  std::string verify_message;
  bool from_cache = false;  ///< true iff api::MappingService served this result
                            ///< from its LRU cache instead of solving; always
                            ///< false on results returned by the mappers
                            ///< themselves (and on dedup-joined results, which
                            ///< share the leader's fresh solve)
  std::string trace_summary;  ///< phase → wall-time table ("phase  ms" lines)
                              ///< summed from the exact.* phase spans;
                              ///< populated only while tracing is enabled
                              ///< (obs::TraceRecorder); empty otherwise.
                              ///< Timing-dependent — an observability field,
                              ///< NOT covered by the determinism guarantee
};

}  // namespace qxmap::exact
