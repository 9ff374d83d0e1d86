/// \file solver.hpp
/// A conflict-driven clause-learning (CDCL) SAT solver.
///
/// This is the self-contained "reasoning engine" backend of the library
/// (the paper uses Z3; Sec. 3.1 only requires *some* engine that handles
/// large search spaces). Feature set: two-watched-literal propagation over
/// a contiguous clause arena (clause_arena.hpp), first-UIP clause learning
/// with recursive minimization and LBD tracking, binary-heap VSIDS with
/// phase saving (vsids_heap.hpp), glucose-style adaptive restarts,
/// periodic learnt-database reduction (reduce_db.hpp), and a top-level
/// simplify() pass. The optimisation loop of reason/cdcl_engine adds
/// cost-bound clauses between incremental solve() calls (sound because the
/// bounds only ever tighten).

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sat/clause_arena.hpp"
#include "sat/literal.hpp"
#include "sat/reduce_db.hpp"
#include "sat/vsids_heap.hpp"

namespace qxmap::sat {

/// Outcome of a solve() call.
enum class SolveResult { Satisfiable, Unsatisfiable, Unknown };

/// Search statistics, cumulative over the solver's lifetime.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;         ///< clauses learnt (units included)
  std::uint64_t learnt_deleted = 0;  ///< clauses removed by ReduceDB
  std::uint64_t learnt_kept = 0;     ///< survivors of the latest ReduceDB pass
  std::uint64_t lbd_sum = 0;         ///< sum of LBDs at learn time (avg = lbd_sum/learned)
};

/// CDCL solver. Not thread-safe; clauses may be added between solve calls
/// (monotone strengthening), variables may be added at any time.
class Solver {
 public:
  Solver();

  /// Creates a fresh variable and returns it.
  Var new_var();

  [[nodiscard]] int num_vars() const noexcept { return static_cast<int>(assign_.size()); }

  /// Adds a clause (disjunction of literals). Returns false iff the clause
  /// makes the formula trivially unsatisfiable at level 0 (empty clause or
  /// conflicting unit). Duplicate literals are merged; tautologies are
  /// silently dropped (returns true).
  bool add_clause(std::vector<Lit> lits);

  /// Convenience overloads.
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }

  /// Runs the CDCL search. `interrupt` (if provided) is polled at every
  /// conflict; returning true aborts with SolveResult::Unknown. Restarts
  /// are glucose-style: when the recent learnt-clause LBD average exceeds
  /// the long-run average — aggressive on UNSAT-like search, blocked while
  /// the trail keeps growing (SAT-like).
  SolveResult solve(const std::function<bool()>& interrupt = nullptr);

  /// Top-level preprocessing: propagates level-0 facts to fixpoint, drops
  /// satisfied clauses and strips falsified literals from the rest. Cheap
  /// when no new level-0 facts arrived since the last call. Returns false
  /// iff the formula became unsatisfiable. solve() runs this implicitly;
  /// callers that add many clauses up front (the optimisation loop) may
  /// call it explicitly before timing-sensitive work.
  bool simplify();

  /// Model access after Satisfiable: value of `v` in the found model.
  [[nodiscard]] bool model_value(Var v) const;
  [[nodiscard]] bool model_value(Lit l) const { return model_value(l.var()) != l.negative(); }

  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }

  /// True once the formula has been proven unsatisfiable at level 0 (any
  /// further solve() returns Unsatisfiable immediately).
  [[nodiscard]] bool proven_unsat() const noexcept { return unsat_; }

 private:
  struct Watcher {
    CRef clause;
    Lit blocker;  // if blocker is true, clause is satisfied; skip the visit
  };

  // --- internal helpers -------------------------------------------------
  [[nodiscard]] Value value(Var v) const noexcept { return assign_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] Value value(Lit l) const noexcept {
    return l.negative() ? -value(l.var()) : value(l.var());
  }

  void attach_clause(CRef cr);
  void enqueue(Lit l, CRef reason);
  CRef propagate();
  void analyze(CRef conflict, std::vector<Lit>& learnt, int& backjump_level, std::uint32_t& lbd);
  [[nodiscard]] bool literal_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  [[nodiscard]] Lit pick_branch_literal();
  void bump_clause(CRef cr);
  [[nodiscard]] std::uint32_t compute_lbd(const std::vector<Lit>& lits);
  [[nodiscard]] std::uint32_t clause_lbd(ClauseView c);
  [[nodiscard]] bool locked(CRef cr) const;
  void reduce_learnts();
  void collect_garbage();
  void rebuild_watches();

  // --- state --------------------------------------------------------------
  ClauseArena arena_;
  std::vector<CRef> clauses_;  // problem clauses
  std::vector<CRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()
  std::vector<Value> assign_;
  std::vector<bool> model_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_limits_;  // decision-level boundaries
  std::size_t qhead_ = 0;
  std::vector<CRef> reason_;
  std::vector<int> level_;
  std::vector<bool> saved_phase_;
  std::vector<bool> seen_;             // scratch for analyze()
  std::vector<std::uint64_t> level_stamp_;  // scratch for compute_lbd()
  std::uint64_t stamp_ = 0;

  VsidsHeap heap_;
  ReduceDb reduce_db_;

  float clause_inc_ = 1.0f;
  bool unsat_ = false;
  std::size_t simplified_at_trail_ = 0;  // trail size at the last sweep
  SolverStats stats_;
};

}  // namespace qxmap::sat
