/// \file cdcl_engine.hpp
/// Reasoning engine backed by the library's own CDCL solver (src/sat).
///
/// Optimisation is a descending-bound loop: solve, read off the model cost,
/// add clauses forbidding any assignment of that cost or worse, repeat until
/// UNSAT (the last model is then provably optimal) or until the budget runs
/// out (Feasible). The weighted bound (Eq. 5: 7·swaps(π) per y, 4 per z) is
/// enforced with a generalized totalizer (GTE): a tree over the weighted
/// cost literals whose root carries one "sum >= w" indicator per attainable
/// weight w, clamped at the first bound + 1; tightening to a smaller bound B
/// then only needs unit clauses ¬(sum >= B') for the smallest attainable
/// B' > B (monotonicity clauses force the rest).
///
/// Cooperative tightening (docs/concurrency.md): with a bound source
/// installed, the loop polls it between solves and — via the SAT solver's
/// conflict-boundary interrupt — every kPollConflictInterval conflicts
/// *inside* a solve. A strictly tighter published bound aborts the in-flight
/// solve at the next conflict boundary, re-tightens the GTE with unit
/// clauses, and resumes; the solver keeps its learnt clauses and heuristic
/// state, so an abort never repeats completed work.

#pragma once

#include <map>
#include <optional>
#include <vector>

#include "reason/engine.hpp"
#include "sat/solver.hpp"

namespace qxmap::reason {

/// ReasoningEngine implementation on top of sat::Solver.
class CdclEngine final : public ReasoningEngine {
 public:
  int new_bool() override;
  void add_clause(const std::vector<int>& lits) override;
  void add_cost(int var, long long weight) override;
  /// Enforces objective <= bound via the GTE before the first solve, so the
  /// descending loop starts below an externally known model cost.
  void set_upper_bound(long long bound) override;
  Outcome minimize(std::chrono::milliseconds budget) override;
  [[nodiscard]] bool value(int var) const override;
  [[nodiscard]] std::string name() const override { return "cdcl"; }

  /// Prefix reuse (Sec. 4.1 subset sharding): snapshots the whole solver —
  /// clause arena, watches, VSIDS state — plus the engine-level objective
  /// bookkeeping. The solver's plain-data subsystems make this a member
  /// copy. reset_to_prefix() restores the copy, discarding every clause,
  /// learnt, cost term and bound added after the mark; stats() counters
  /// survive (they are cumulative per shard).
  bool mark_prefix() override;
  bool reset_to_prefix() override;

  /// Underlying solver statistics (for benchmarks).
  [[nodiscard]] const sat::SolverStats& solver_stats() const noexcept { return solver_.stats(); }

  /// In-solve bound-source poll cadence, in solver conflicts (the solver's
  /// interrupt hook fires once per conflict; every Nth consults the source).
  static constexpr int kPollConflictInterval = 128;

 private:
  /// Adds clauses enforcing objective <= bound (builds the GTE on first use,
  /// clamped at bound + 1). Tracks the tightest bound enforced so far.
  void add_cost_bound(long long bound);
  /// Enforces an *external* (inclusive) bound: objective <= bound. Also
  /// records it for the Optimal-vs-bounded-Unsat decision.
  void apply_external_bound(long long bound);
  /// Records a polled bound in external_limit_ (counting a tightening when
  /// it strictly improves), returning it. Every poll goes through here so
  /// the reported outcome matches "the tightest polled bound had been set
  /// before minimize()" even when the clause database needs no update.
  long long observe_external(long long ext);
  /// Between-solve checkpoint: consults the bound source and enforces the
  /// result when strictly tighter than everything enforced so far.
  void poll_and_tighten();
  [[nodiscard]] long long model_cost() const;
  void snapshot_model();
  /// Outcome when the budget expires: Feasible with the best model's cost,
  /// unless that cost exceeds the tightest external bound — a run with the
  /// bound set up front would have found nothing yet, so Unknown (the
  /// observed-vs-enforced contract, docs/concurrency.md).
  [[nodiscard]] Outcome budget_outcome() const;
  Outcome minimize_descending(std::chrono::steady_clock::time_point deadline);

  /// Engine-level state captured by mark_prefix (the sat::Solver itself is
  /// copyable by design — contiguous arena + plain vectors).
  struct PrefixSnapshot {
    sat::Solver solver;
    std::vector<std::pair<int, long long>> cost_terms;
    std::map<long long, sat::Lit> ge;
    long long clamp = -1;
    std::optional<long long> upper_bound;
    long long enforced = kNoBound;
    long long external_limit = kNoBound;
  };

  sat::Solver solver_;
  std::optional<long long> upper_bound_;
  /// Tightest bound ever passed to add_cost_bound (internal descents and
  /// external bounds alike); a polled value prunes only if below this.
  long long enforced_ = kNoBound;
  /// Tightest *external* bound observed (set_upper_bound or any poll). A
  /// model costlier than this is reported as bounded-Unsat, never Optimal,
  /// so the outcome matches "the bound had been set before minimize()".
  long long external_limit_ = kNoBound;
  std::vector<std::pair<int, long long>> cost_terms_;  // (var, weight)
  // Generalized-totalizer root: ge_[w] ↔ "objective >= w" for attainable w,
  // clamped at clamp_. Built lazily by the first add_cost_bound call.
  std::map<long long, sat::Lit> ge_;
  long long clamp_ = -1;
  std::vector<bool> best_model_;
  bool has_model_ = false;
  std::optional<PrefixSnapshot> prefix_;
};

}  // namespace qxmap::reason
