/// \file qxmap.hpp
/// Public facade of the library: one include, one entry point.
///
/// ```cpp
/// #include "api/qxmap.hpp"
///
/// auto circuit = qxmap::qasm::parse_file("circuit.qasm");
/// auto arch    = qxmap::arch::ibm_qx4();
/// auto result  = qxmap::map(circuit, arch);      // exact, minimal SWAP/H
/// std::cout << qxmap::qasm::write(result.mapped);
/// ```
///
/// `map()` dispatches between the paper's exact method (default), the
/// Sec. 4 performance-optimised variants (via MapOptions::exact), and the
/// three heuristic baselines; SABRE is the one to use on architectures
/// beyond the exact method's reach (heavy-hex 27-127).
///
/// The QASM front-end accepts full OpenQASM 2.0 — user-defined `gate`
/// declarations (macro-expanded into the U/CX IR), `if (creg == n)`
/// conditionals (carried on `Gate::condition` and preserved verbatim by
/// every mapper), parameter expressions, and `include` resolution
/// configurable through `qasm::ParseOptions` (include search paths,
/// expansion depth). See docs/qasm-support.md for the construct-by-
/// construct support matrix.
///
/// Performance knobs: `MapOptions::exact.num_threads` caps how many
/// Sec. 4.1 subset instances of this request run concurrently on the
/// process-wide `exact::ShardExecutor` (0 = hardware concurrency; results
/// are thread-count invariant), and every mapper fetches its
/// per-architecture routing tables from the process-wide
/// `arch::SwapCostCache` — repeated `map()` calls on the same coupling map
/// never rebuild the swaps(π) table.
///
/// Serving repeated traffic? `api::MappingService` (api/service.hpp) wraps
/// `map()` with a fingerprint-keyed result cache and in-flight
/// deduplication — see docs/service.md.

#pragma once

#include "arch/architectures.hpp"
#include "arch/coupling_map.hpp"
#include "arch/swap_cost_cache.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/types.hpp"
#include "heuristic/astar_mapper.hpp"
#include "heuristic/sabre_mapper.hpp"
#include "heuristic/stochastic_swap.hpp"
#include "ir/circuit.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"

namespace qxmap {

/// Mapping algorithm selector.
enum class Method {
  Exact,           ///< Secs. 3-4: symbolic formulation + reasoning engine
  StochasticSwap,  ///< Qiskit 0.4-style randomized baseline ("IBM [12]")
  AStar,           ///< Zulehner-style layer A* baseline ([22])
  Sabre,           ///< SABRE-style lookahead baseline ([13]); the router
                   ///< for architectures beyond the exact method (heavy-hex)
};

/// Combined options; only the block matching `method` is consulted.
struct MapOptions {
  Method method = Method::Exact;
  exact::ExactOptions exact;
  heuristic::StochasticSwapOptions stochastic;
  heuristic::AStarOptions astar;
  heuristic::SabreOptions sabre;
};

/// Maps `circuit` onto `architecture`. See exact::MappingResult for the
/// returned artefacts (mapped circuit, layouts, cost F, verification).
[[nodiscard]] exact::MappingResult map(const Circuit& circuit,
                                       const arch::CouplingMap& architecture,
                                       const MapOptions& options = {});

/// Library version string ("major.minor.patch").
[[nodiscard]] const char* version();

}  // namespace qxmap
