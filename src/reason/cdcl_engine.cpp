#include "reason/cdcl_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::reason {

namespace {

using sat::Lit;
using sat::Solver;

/// Node of the generalized totalizer: "sum over this subtree >= w" per
/// attainable weight w > 0, clamped at `clamp` (all sums beyond the clamp
/// collapse onto the clamp value — sufficient for bounding below it).
using WeightedOutputs = std::map<long long, Lit>;

WeightedOutputs merge_nodes(Solver& s, const WeightedOutputs& a, const WeightedOutputs& b,
                            long long clamp) {
  WeightedOutputs out;
  // Collect attainable sums (clamped).
  std::vector<std::pair<long long, long long>> combos;  // (a-weight, b-weight); 0 = "none"
  for (auto ita = a.begin();; ++ita) {
    const long long wa = (ita == a.end()) ? 0 : ita->first;
    for (auto itb = b.begin();; ++itb) {
      const long long wb = (itb == b.end()) ? 0 : itb->first;
      if (wa + wb > 0) combos.emplace_back(wa, wb);
      if (itb == b.end()) break;
    }
    if (ita == a.end()) break;
  }
  for (const auto& [wa, wb] : combos) {
    const long long w = std::min(wa + wb, clamp);
    if (!out.contains(w)) out.emplace(w, sat::pos(s.new_var()));
  }
  // a>=wa ∧ b>=wb → out>=min(wa+wb, clamp)
  for (const auto& [wa, wb] : combos) {
    const long long w = std::min(wa + wb, clamp);
    std::vector<Lit> clause;
    if (wa > 0) clause.push_back(~a.at(wa));
    if (wb > 0) clause.push_back(~b.at(wb));
    clause.push_back(out.at(w));
    s.add_clause(std::move(clause));
  }
  // Monotonicity: out>=w2 → out>=w1 for consecutive attainable w1 < w2.
  for (auto it = out.begin(); it != out.end(); ++it) {
    const auto next = std::next(it);
    if (next != out.end()) s.add_clause(~next->second, it->second);
  }
  return out;
}

WeightedOutputs build_gte(Solver& s, const std::vector<std::pair<Lit, long long>>& terms,
                          std::size_t lo, std::size_t hi, long long clamp) {
  if (hi - lo == 1) {
    WeightedOutputs leaf;
    leaf.emplace(std::min(terms[lo].second, clamp), terms[lo].first);
    return leaf;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  return merge_nodes(s, build_gte(s, terms, lo, mid, clamp), build_gte(s, terms, mid, hi, clamp),
                     clamp);
}

}  // namespace

int CdclEngine::new_bool() { return solver_.new_var(); }

void CdclEngine::add_clause(const std::vector<int>& lits) {
  std::vector<Lit> converted;
  converted.reserve(lits.size());
  for (const int l : lits) {
    if (l == 0) throw std::invalid_argument("CdclEngine::add_clause: zero literal");
    converted.push_back(Lit(std::abs(l) - 1, l < 0));
  }
  solver_.add_clause(std::move(converted));
}

bool CdclEngine::mark_prefix() {
  prefix_.emplace(PrefixSnapshot{solver_, cost_terms_, ge_, clamp_, upper_bound_, enforced_,
                                 external_limit_});
  return true;
}

bool CdclEngine::reset_to_prefix() {
  if (!prefix_) return false;
  solver_ = prefix_->solver;
  cost_terms_ = prefix_->cost_terms;
  ge_ = prefix_->ge;
  clamp_ = prefix_->clamp;
  upper_bound_ = prefix_->upper_bound;
  enforced_ = prefix_->enforced;
  external_limit_ = prefix_->external_limit;
  best_model_.clear();
  has_model_ = false;
  return true;
}

void CdclEngine::add_cost(int var, long long weight) {
  if (weight <= 0) throw std::invalid_argument("CdclEngine::add_cost: weight must be positive");
  cost_terms_.emplace_back(var, weight);
}

long long CdclEngine::model_cost() const {
  long long cost = 0;
  for (const auto& [var, weight] : cost_terms_) {
    if (best_model_[static_cast<std::size_t>(var)]) cost += weight;
  }
  return cost;
}

void CdclEngine::snapshot_model() {
  best_model_.resize(static_cast<std::size_t>(solver_.num_vars()));
  for (sat::Var v = 0; v < solver_.num_vars(); ++v) {
    best_model_[static_cast<std::size_t>(v)] = solver_.model_value(v);
  }
  has_model_ = true;
}

Outcome CdclEngine::budget_outcome() const {
  Outcome out;
  if (has_model_ && model_cost() <= external_limit_) {
    out.status = Status::Feasible;
    out.cost = model_cost();
  } else {
    // No model, or only a stale model costlier than the tightest external
    // bound: a run with that bound enforced from the start would have found
    // nothing by now, so the bounded contract demands Unknown — never a
    // Feasible cost above the bound, and not Unsat either (nothing below
    // the bound has been *proven* absent).
    out.status = Status::Unknown;
  }
  return out;
}

void CdclEngine::add_cost_bound(long long bound) {
  if (bound < enforced_) enforced_ = bound;
  if (cost_terms_.empty()) return;
  if (bound < 0) {
    // Nothing cheaper than 0 exists; make the formula UNSAT to stop the loop.
    solver_.add_clause(std::vector<Lit>{});
    return;
  }
  if (ge_.empty()) {
    clamp_ = bound + 1;
    std::vector<std::pair<Lit, long long>> terms;
    terms.reserve(cost_terms_.size());
    for (const auto& [var, weight] : cost_terms_) {
      terms.emplace_back(sat::pos(var), weight);
    }
    ge_ = build_gte(solver_, terms, 0, terms.size(), clamp_);
  }
  // Forbid every attainable objective value above the bound.
  for (const auto& [w, lit] : ge_) {
    if (w > bound) {
      solver_.add_clause(~lit);
      break;  // monotonicity clauses force the rest
    }
  }
}

void CdclEngine::set_upper_bound(long long bound) {
  if (bound < 0) throw std::invalid_argument("CdclEngine::set_upper_bound: negative bound");
  upper_bound_ = bound;
}

void CdclEngine::apply_external_bound(long long bound) {
  add_cost_bound(bound);
  if (bound < external_limit_) external_limit_ = bound;
}

long long CdclEngine::observe_external(long long ext) {
  if (ext < external_limit_) {
    external_limit_ = ext;
    ++stats_.bound_tightenings;
  }
  return ext;
}

void CdclEngine::poll_and_tighten() {
  if (!has_bound_source()) return;
  const long long ext = observe_external(poll_bound_source());
  if (ext < enforced_) add_cost_bound(ext);
}

namespace {

/// Registry twins of the cumulative SolverStats / EngineStats counters.
/// minimize() publishes per-call deltas, so the process-wide totals stay
/// correct across many engines (one per shard thread).
struct CdclMetrics {
  obs::Counter& conflicts;
  obs::Counter& restarts;
  obs::Counter& decisions;
  obs::Counter& propagations;
  obs::Counter& learned;
  obs::Counter& learnt_deleted;
  obs::Counter& bound_polls;
  obs::Counter& bound_tightenings;

  static CdclMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static CdclMetrics m{
        reg.counter("qxmap_cdcl_conflicts_total", "CDCL conflicts across all engines"),
        reg.counter("qxmap_cdcl_restarts_total", "CDCL restarts (glucose policy)"),
        reg.counter("qxmap_cdcl_decisions_total", "CDCL decisions"),
        reg.counter("qxmap_cdcl_propagations_total", "CDCL unit propagations"),
        reg.counter("qxmap_cdcl_learned_total", "Learnt clauses added"),
        reg.counter("qxmap_cdcl_learnt_deleted_total", "Learnt clauses removed by ReduceDB"),
        reg.counter("qxmap_engine_bound_polls_total",
                    "Shared-bound consultations at engine checkpoints"),
        reg.counter("qxmap_engine_bound_tightenings_total",
                    "Polls that strictly tightened an engine's external bound"),
    };
    return m;
  }
};

}  // namespace

Outcome CdclEngine::minimize(std::chrono::milliseconds budget) {
  obs::Span span("cdcl.minimize", "cdcl");
  const sat::SolverStats before = solver_.stats();
  const long long polls_before = stats_.bound_polls;
  const long long tightenings_before = stats_.bound_tightenings;
  const auto deadline = std::chrono::steady_clock::now() + budget;
  // Known external bound: start with objective <= bound already enforced.
  if (upper_bound_) apply_external_bound(*upper_bound_);
  // Preprocessing before the timing-sensitive loop: propagate level-0 facts
  // (the encoding produces many units) to fixpoint and shed satisfied /
  // falsified-literal clauses once, instead of carrying them through every
  // descending step.
  solver_.simplify();
  const Outcome out = minimize_descending(deadline);
  const sat::SolverStats& ss = solver_.stats();
  stats_.learnts_kept = static_cast<long long>(ss.learnt_kept);
  stats_.learnts_deleted = static_cast<long long>(ss.learnt_deleted);
  stats_.restarts = static_cast<long long>(ss.restarts);
  stats_.avg_lbd =
      ss.learned > 0 ? static_cast<double>(ss.lbd_sum) / static_cast<double>(ss.learned) : 0.0;
  CdclMetrics& metrics = CdclMetrics::get();
  metrics.conflicts.inc(ss.conflicts - before.conflicts);
  metrics.restarts.inc(ss.restarts - before.restarts);
  metrics.decisions.inc(ss.decisions - before.decisions);
  metrics.propagations.inc(ss.propagations - before.propagations);
  metrics.learned.inc(ss.learned - before.learned);
  metrics.learnt_deleted.inc(ss.learnt_deleted - before.learnt_deleted);
  metrics.bound_polls.inc(static_cast<std::uint64_t>(stats_.bound_polls - polls_before));
  metrics.bound_tightenings.inc(
      static_cast<std::uint64_t>(stats_.bound_tightenings - tightenings_before));
  span.attr("status", to_string(out.status));
  span.attr("cost", out.cost);
  span.attr("conflicts", static_cast<unsigned long long>(ss.conflicts - before.conflicts));
  return out;
}

Outcome CdclEngine::minimize_descending(std::chrono::steady_clock::time_point deadline) {
  Outcome out;
  // Milestone instants (restarts, ReduceDB passes) are detected as solver
  // stat deltas at conflict boundaries. The flag is sampled once so the
  // disabled path costs nothing per conflict beyond this captured bool.
  const bool tracing = obs::TraceRecorder::enabled();
  std::uint64_t seen_restarts = solver_.stats().restarts;
  std::uint64_t seen_deleted = solver_.stats().learnt_deleted;
  for (;;) {
    // Between-solve checkpoint: adopt any bound published while the previous
    // solve ran (and guarantee at least one poll per minimize call).
    poll_and_tighten();
    // In-solve checkpoints ride the solver's conflict-boundary interrupt.
    // Clauses cannot be added mid-solve, so a strictly tighter published
    // bound aborts at the next conflict boundary and is enforced below
    // before re-entering; the solver keeps learnt clauses, phases and
    // activities, so nothing already derived is lost.
    long long pending = kNoBound;
    int countdown = kPollConflictInterval;
    const auto interrupt = [&]() -> bool {
      if (tracing) {
        const sat::SolverStats& ss = solver_.stats();
        if (ss.restarts != seen_restarts) {
          obs::Span::instant("cdcl.restart", "cdcl");
          seen_restarts = ss.restarts;
        }
        if (ss.learnt_deleted != seen_deleted) {
          obs::Span::instant("cdcl.reduce_db", "cdcl",
                             {{"deleted", std::to_string(ss.learnt_deleted - seen_deleted)}});
          seen_deleted = ss.learnt_deleted;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) return true;
      if (has_bound_source() && --countdown <= 0) {
        countdown = kPollConflictInterval;
        const long long ext = observe_external(poll_bound_source());
        if (ext < enforced_) {
          pending = ext;
          return true;
        }
      }
      return false;
    };
    const sat::SolveResult r = solver_.solve(interrupt);
    if (r == sat::SolveResult::Unknown && pending != kNoBound) {
      if (obs::TraceRecorder::enabled()) {
        obs::Span::instant("cdcl.tighten_abort", "cdcl", {{"bound", std::to_string(pending)}});
      }
      add_cost_bound(pending);
      continue;
    }
    if (r == sat::SolveResult::Unsatisfiable) {
      if (has_model_ && model_cost() <= external_limit_) {
        out.status = Status::Optimal;
        out.cost = model_cost();
      } else {
        // No model at all, or only models costlier than the tightest
        // external bound (found before that bound arrived): under the
        // bounded contract both mean "cannot beat the incumbent", reported
        // as Unsat — exactly as if the bound had been set before the solve.
        out.status = Status::Unsat;
      }
      return out;
    }
    if (r == sat::SolveResult::Unknown) {
      return budget_outcome();
    }
    // Satisfiable: snapshot the model, tighten, and go again.
    snapshot_model();
    const long long cost = model_cost();
    if (cost == 0) {
      out.status = Status::Optimal;
      out.cost = 0;
      return out;
    }
    add_cost_bound(cost - 1);
  }
}

bool CdclEngine::value(int var) const {
  if (!has_model_) throw std::logic_error("CdclEngine::value: no model available");
  return best_model_.at(static_cast<std::size_t>(var));
}

}  // namespace qxmap::reason
