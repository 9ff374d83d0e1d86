#include "exact/swap_synthesis.hpp"

#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/equivalence.hpp"
#include "sim/linear_reversible.hpp"

namespace qxmap::exact {

namespace {

std::vector<int> identity_layout(int n) {
  std::vector<int> layout(static_cast<std::size_t>(n));
  std::iota(layout.begin(), layout.end(), 0);
  return layout;
}

}  // namespace

void append_swap_realisation(Circuit& c, const arch::CouplingMap& cm, int a, int b) {
  if (!cm.coupled(a, b)) {
    throw std::invalid_argument("append_swap_realisation: qubits not coupled");
  }
  if (cm.allows(a, b) && cm.allows(b, a)) {
    c.cnot(a, b);
    c.cnot(b, a);
    c.cnot(a, b);
    return;
  }
  // Orient so that (u → v) is the allowed direction.
  const int u = cm.allows(a, b) ? a : b;
  const int v = cm.allows(a, b) ? b : a;
  c.cnot(u, v);
  c.h(u);
  c.h(v);
  c.cnot(u, v);
  c.h(u);
  c.h(v);
  c.cnot(u, v);
}

void append_cnot_realisation(Circuit& c, const arch::CouplingMap& cm, int control, int target,
                             const std::optional<Condition>& condition) {
  if (cm.allows(control, target)) {
    c.append(Gate::cnot(control, target).with_condition(condition));
    return;
  }
  if (cm.allows(target, control)) {
    c.append(Gate::single(OpKind::H, control).with_condition(condition));
    c.append(Gate::single(OpKind::H, target).with_condition(condition));
    c.append(Gate::cnot(target, control).with_condition(condition));
    c.append(Gate::single(OpKind::H, control).with_condition(condition));
    c.append(Gate::single(OpKind::H, target).with_condition(condition));
    return;
  }
  throw std::invalid_argument("append_cnot_realisation: qubits not coupled");
}

int swap_gate_cost(const arch::CouplingMap& cm) {
  for (const auto& [a, b] : cm.undirected_edges()) {
    if (!cm.allows(a, b) || !cm.allows(b, a)) return 7;
  }
  return 3;
}

bool satisfies_coupling(const Circuit& c, const arch::CouplingMap& cm) {
  for (const auto& g : c) {
    if (g.is_swap()) return false;
    if (g.is_cnot() && !cm.allows(g.control, g.target)) return false;
  }
  return true;
}

RouteBuilder::RouteBuilder(const Circuit& original, const arch::CouplingMap& cm,
                           std::vector<int> initial_layout)
    : original_(&original),
      cm_(&cm),
      mapped_(cm.num_physical(), original.name() + "/mapped"),
      skeleton_(cm.num_physical(), original.name() + "/routed-skeleton"),
      initial_(initial_layout),
      layout_(std::move(initial_layout)) {}

RouteBuilder::RouteBuilder(const Circuit& original, const arch::CouplingMap& cm)
    : RouteBuilder(original, cm, identity_layout(original.num_qubits())) {}

void RouteBuilder::swap(int a, int b) {
  append_swap_realisation(mapped_, *cm_, a, b);
  skeleton_.swap(a, b);
  ++swaps_;
  for (auto& p : layout_) {
    if (p == a) {
      p = b;
    } else if (p == b) {
      p = a;
    }
  }
}

void RouteBuilder::gate(const Gate& g) {
  if (g.kind == OpKind::Barrier) {
    mapped_.append(g);
    return;
  }
  if (g.is_nonunitary() || g.is_single_qubit()) {
    mapped_.append(g.remapped(layout_[static_cast<std::size_t>(g.target)]));
    return;
  }
  const int pc = layout_[static_cast<std::size_t>(g.control)];
  const int pt = layout_[static_cast<std::size_t>(g.target)];
  skeleton_.cnot(pc, pt);
  if (!cm_->allows(pc, pt)) ++reversed_;
  append_cnot_realisation(mapped_, *cm_, pc, pt, g.condition);
}

MappingResult RouteBuilder::finish(const CostModel& costs, bool verify) && {
  MappingResult res;
  res.cost_f =
      static_cast<long long>(mapped_.size()) - static_cast<long long>(original_->size());
  res.mapped = std::move(mapped_);
  res.routed_skeleton = std::move(skeleton_);
  res.initial_layout = std::move(initial_);
  res.final_layout = std::move(layout_);
  res.swaps_inserted = swaps_;
  res.cnots_reversed = reversed_;
  res.objective = to_string(costs.objective);
  res.objective_cost = costs.result_cost(swaps_, reversed_);
  if (verify) {
    const bool gf2_ok = sim::implements_skeleton(original_->cnot_skeleton(), res.routed_skeleton,
                                                 res.initial_layout, res.final_layout);
    bool deep_ok = true;
    std::string deep_msg = "statevector check skipped (architecture too large)";
    if (cm_->num_physical() <= kDeepVerifyMaxQubits) {
      const auto eq = sim::check_mapped_circuit(*original_, res.mapped, res.initial_layout,
                                                res.final_layout);
      deep_ok = eq.equivalent;
      deep_msg = eq.message;
    }
    res.verified = gf2_ok && deep_ok;
    res.verify_message = std::string("gf2: ") + (gf2_ok ? "ok" : "FAILED") + "; " + deep_msg;
  }
  return res;
}

}  // namespace qxmap::exact
