/// \file engine.hpp
/// Abstraction over "powerful reasoning engines" (Sec. 3.1).
///
/// The paper solves the symbolic formulation with Z3; this library supports
/// two interchangeable backends behind one interface — Z3's MaxSAT-style
/// optimizer and the home-grown CDCL solver with a descending-bound loop —
/// so the engine choice becomes an ablation axis (bench/engines). Sec. 3.3
/// allows either fixing F and searching towards the minimum or letting the
/// engine minimise; both backends do the latter.
///
/// Literal convention: an engine variable is an int id (0-based); a literal
/// is DIMACS-like, `+(id+1)` for the positive phase, `-(id+1)` for the
/// negative phase.

#pragma once

#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace qxmap::reason {

/// Status of an optimisation run.
enum class Status {
  Optimal,     ///< model found and proven minimal
  Feasible,    ///< model found, optimality not proven (budget exhausted)
  Unsat,       ///< constraints unsatisfiable
  Unknown,     ///< no model found within budget
};

/// Outcome of ReasoningEngine::minimize.
struct Outcome {
  Status status = Status::Unknown;
  long long cost = 0;  ///< objective value of the best model (valid for Optimal/Feasible)
};

/// Counters of the cooperative bound protocol (docs/concurrency.md) plus
/// backend search statistics. Poll timing and search trajectories depend on
/// machine speed, so these are observability numbers, not part of any
/// determinism guarantee. The solver-internal fields are filled by the CDCL
/// backend (zero for Z3, which does not expose them).
struct EngineStats {
  long long bound_polls = 0;        ///< bound-source consultations
  long long bound_tightenings = 0;  ///< polls that strictly tightened the
                                    ///< externally-known bound mid-solve
  long long learnts_kept = 0;       ///< learnt clauses surviving the latest ReduceDB pass
  long long learnts_deleted = 0;    ///< learnt clauses deleted by ReduceDB
  long long restarts = 0;           ///< search restarts
  double avg_lbd = 0.0;             ///< average LBD of learnt clauses
};

/// One engine instance owns one formula + objective. An engine is not
/// reusable across arbitrary problems, with one structured exception:
/// mark_prefix() / reset_to_prefix() let backends that support it snapshot
/// the formula after a common clause prefix and later roll back to exactly
/// that snapshot, so a family of instances sharing the prefix (the Sec. 4.1
/// subset instances) pays its encoding cost once per shard.
class ReasoningEngine {
 public:
  /// "No bound known" sentinel returned by a BoundSource.
  static constexpr long long kNoBound = std::numeric_limits<long long>::max();

  /// Live view of the cheapest model cost known outside this engine (e.g.
  /// the shared Eq. (5) bound of the parallel exact mapper). Must be safe to
  /// call from the engine's solving thread at any time and must be monotone:
  /// once it returns a value b it never returns anything greater than b.
  /// Returns kNoBound while no external model is known.
  using BoundSource = std::function<long long()>;

  virtual ~ReasoningEngine() = default;

  /// Creates a fresh Boolean variable, returning its id.
  virtual int new_bool() = 0;

  /// Adds a disjunction of literals (see the convention above).
  virtual void add_clause(const std::vector<int>& lits) = 0;

  /// Adds `weight` to the objective whenever variable `var` is true.
  /// weight must be positive.
  virtual void add_cost(int var, long long weight) = 0;

  /// Optimisation hint: a model of cost `bound` is already known elsewhere
  /// (e.g. from another subset instance, Sec. 4.1), so only models with
  /// objective <= bound are of interest. Engines may enforce the bound to
  /// prune the search, in which case costlier-only formulas come back as
  /// Unsat; callers must treat that as "cannot beat the bound", not as true
  /// unsatisfiability. Call at most once, before minimize(). The default
  /// implementation ignores the hint.
  virtual void set_upper_bound(long long bound);

  /// Cooperative tightening (docs/concurrency.md): installs a live bound
  /// source that minimize() polls at periodic checkpoints *during* the
  /// search. When a poll returns a bound tighter than everything enforced so
  /// far, the engine re-tightens its objective constraint in flight and
  /// abandons branches that can no longer beat it. The bound is inclusive
  /// (models with objective == bound are still of interest); like
  /// set_upper_bound, an engine that proves nothing at or below the tightest
  /// polled bound exists reports Unsat, which callers must read as "cannot
  /// beat the bound". Call before minimize(); the base implementation stores
  /// the source and the backend decides the checkpoint cadence (the default
  /// minimize() implementations consult it at least once per solve).
  virtual void set_bound_source(BoundSource source);

  /// Snapshots the engine's current state (variables + clauses added so
  /// far) as the reusable prefix. Returns false when the backend does not
  /// support prefix reuse (callers then fall back to a fresh engine per
  /// instance). Call before any add_cost / set_upper_bound / minimize.
  virtual bool mark_prefix();

  /// Rolls the engine back to the mark_prefix() snapshot — formula, costs
  /// and bounds return to their prefix state; cumulative stats() counters
  /// are kept. Returns false when no snapshot exists or the backend does
  /// not support prefix reuse.
  virtual bool reset_to_prefix();

  /// Cooperative-bound counters accumulated across minimize() calls.
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Minimizes the objective subject to the clauses within `budget`.
  virtual Outcome minimize(std::chrono::milliseconds budget) = 0;

  /// Value of `var` in the best model found (valid after Optimal/Feasible).
  [[nodiscard]] virtual bool value(int var) const = 0;

  /// Human-readable backend name ("z3", "cdcl").
  [[nodiscard]] virtual std::string name() const = 0;

  // Convenience helpers shared by all backends (implemented via add_clause /
  // new_bool only).

  /// At-most-one: pairwise for up to 6 literals, the sequential ("ladder")
  /// encoding with n - 1 auxiliary variables above that.
  void add_at_most_one(const std::vector<int>& lits);
  /// One clause.
  void add_at_least_one(const std::vector<int>& lits);
  /// Exactly-one: one clause plus add_at_most_one.
  void add_exactly_one(const std::vector<int>& lits);
  /// Fresh t with t ↔ (a ∧ b); operands are literals.
  [[nodiscard]] int make_and(int a, int b);
  /// Fresh t with t ↔ ∨ lits (empty input → t fixed false).
  [[nodiscard]] int make_or(const std::vector<int>& lits);
  /// Force literal equality a = b.
  void add_equal_lits(int a, int b);
  /// antecedent → (a = b); all three are literals.
  void add_implies_equal(int antecedent, int a, int b);

 protected:
  /// True once set_bound_source installed a source.
  [[nodiscard]] bool has_bound_source() const noexcept { return bound_source_ != nullptr; }

  /// Consults the bound source (counting the poll in stats()); kNoBound when
  /// no source is installed.
  [[nodiscard]] long long poll_bound_source();

  EngineStats stats_;

 private:
  BoundSource bound_source_;
};

/// Which backend to instantiate.
enum class EngineKind { Z3, Cdcl };

/// Name for reports ("z3" / "cdcl").
[[nodiscard]] std::string to_string(EngineKind kind);

/// "optimal" / "feasible" / "unsat" / "unknown" — for logs and trace attrs.
[[nodiscard]] std::string to_string(Status status);

/// True when the library was built with the Z3 backend (QXMAP_WITH_Z3).
/// When false, make_engine(EngineKind::Z3) degrades to the CDCL backend.
[[nodiscard]] bool z3_available();

/// Factory.
[[nodiscard]] std::unique_ptr<ReasoningEngine> make_engine(EngineKind kind);

}  // namespace qxmap::reason
