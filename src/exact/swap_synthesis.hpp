/// \file swap_synthesis.hpp
/// Emission of coupling-legal gate sequences for SWAPs and CNOTs (Fig. 3),
/// and the RouteBuilder every mapper turns its route into a result with.

#pragma once

#include <optional>
#include <vector>

#include "arch/coupling_map.hpp"
#include "exact/types.hpp"
#include "ir/circuit.hpp"

namespace qxmap::exact {

/// Appends a SWAP between coupled physical qubits a, b:
///  * both directions in CM: CX(a,b) CX(b,a) CX(a,b) — 3 gates;
///  * one direction (say a→b): CX(a,b), H a, H b, CX(a,b), H a, H b,
///    CX(a,b) — the 7-operation form of Fig. 3.
/// \throws std::invalid_argument if a and b are not coupled.
void append_swap_realisation(Circuit& c, const arch::CouplingMap& cm, int a, int b);

/// Appends CNOT(control → target) on coupled qubits, H-conjugating when only
/// the reverse edge exists (4 extra H gates). A classical guard, when given,
/// is applied to every emitted gate (the realisation as a whole is the
/// guarded operation).
/// \throws std::invalid_argument if the qubits are not coupled.
void append_cnot_realisation(Circuit& c, const arch::CouplingMap& cm, int control, int target,
                             const std::optional<Condition>& condition = {});

/// The per-SWAP gate cost on this architecture: 7 if any coupling is
/// one-directional, 3 if every coupling is bidirected. This is the weight of
/// swaps(π) in Eq. 5 (the paper's architectures are all one-directional,
/// hence the constant 7 there).
[[nodiscard]] int swap_gate_cost(const arch::CouplingMap& cm);

/// True iff every CNOT in `c` lies on a directed coupling edge and no SWAP
/// pseudo-gates remain — i.e. the circuit is executable on the architecture.
[[nodiscard]] bool satisfies_coupling(const Circuit& c, const arch::CouplingMap& cm);

/// Largest architecture on which RouteBuilder::finish also checks the mapped
/// circuit by statevector simulation (2^m amplitudes per basis input).
inline constexpr int kDeepVerifyMaxQubits = 8;

/// Turns a route — an initial layout, then SWAPs and gates in order — into
/// a mapped circuit of the Fig. 3 form, and finishes it into a verified
/// MappingResult. Every mapper (exact, stochastic, SABRE, A*) emits through
/// it, so the realisation, the counts and the checks exist once.
class RouteBuilder {
 public:
  /// Starts an empty route of `original` on `cm` from `initial_layout`
  /// (logical j -> physical qubit). Both must outlive the builder.
  RouteBuilder(const Circuit& original, const arch::CouplingMap& cm,
               std::vector<int> initial_layout);
  /// Starts from the identity layout (logical j on physical j).
  RouteBuilder(const Circuit& original, const arch::CouplingMap& cm);

  /// Emits SWAP(a, b) in its Fig. 3 realisation and exchanges the logical
  /// qubits placed on a and b.
  /// \throws std::invalid_argument if a and b are not coupled.
  void swap(int a, int b);

  /// Routes `g` under the current layout: a barrier verbatim, a
  /// single-qubit or non-unitary gate re-targeted (params and classical
  /// guard kept), a CNOT realised on its coupling edge (4 H when only the
  /// reverse direction exists).
  /// \throws std::invalid_argument if a CNOT's qubits are not coupled.
  void gate(const Gate& g);

  [[nodiscard]] const std::vector<int>& layout() const noexcept { return layout_; }
  [[nodiscard]] int swaps() const noexcept { return swaps_; }
  [[nodiscard]] int reversed() const noexcept { return reversed_; }

  /// Moves the route into a result: mapped circuit, routing skeleton, both
  /// layouts, the counts, cost_f, and objective/objective_cost under the
  /// resolved `costs`. With `verify`, checks the skeleton over GF(2) and, on
  /// at most kDeepVerifyMaxQubits physical qubits, the mapped circuit by
  /// statevector. The caller fills engine_name, status and timing.
  [[nodiscard]] MappingResult finish(const CostModel& costs, bool verify) &&;

 private:
  const Circuit* original_;
  const arch::CouplingMap* cm_;
  Circuit mapped_;
  Circuit skeleton_;
  std::vector<int> initial_;
  std::vector<int> layout_;
  int swaps_ = 0;
  int reversed_ = 0;
};

}  // namespace qxmap::exact
