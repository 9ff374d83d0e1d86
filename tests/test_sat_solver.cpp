#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"

namespace qxmap {
namespace {

using sat::Lit;
using sat::neg;
using sat::pos;
using sat::Solver;
using sat::SolveResult;

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

TEST(SatSolver, SingleUnit) {
  Solver s;
  const auto v = s.new_var();
  s.add_clause(pos(v));
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_TRUE(s.model_value(v));
}

TEST(SatSolver, ConflictingUnitsUnsat) {
  Solver s;
  const auto v = s.new_var();
  EXPECT_TRUE(s.add_clause(pos(v)));
  EXPECT_FALSE(s.add_clause(neg(v)));
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_TRUE(s.proven_unsat());
}

TEST(SatSolver, TautologyDropped) {
  Solver s;
  const auto v = s.new_var();
  EXPECT_TRUE(s.add_clause(std::vector<Lit>{pos(v), neg(v)}));
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

TEST(SatSolver, DuplicateLiteralsMerged) {
  Solver s;
  const auto v = s.new_var();
  s.add_clause(std::vector<Lit>{pos(v), pos(v), pos(v)});
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_TRUE(s.model_value(v));
}

TEST(SatSolver, ImplicationChainPropagates) {
  Solver s;
  std::vector<sat::Var> vars;
  for (int i = 0; i < 50; ++i) vars.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i) s.add_clause(neg(vars[static_cast<std::size_t>(i)]), pos(vars[static_cast<std::size_t>(i + 1)]));
  s.add_clause(pos(vars[0]));
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  for (const auto v : vars) EXPECT_TRUE(s.model_value(v));
}

TEST(SatSolver, XorChainUnsat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, x3 xor x1 = 1 is unsatisfiable (odd cycle).
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  const auto c = s.new_var();
  const auto add_xor_true = [&](sat::Var u, sat::Var v) {
    s.add_clause(pos(u), pos(v));
    s.add_clause(neg(u), neg(v));
  };
  add_xor_true(a, b);
  add_xor_true(b, c);
  add_xor_true(c, a);
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes — classic
/// resolution-hard UNSAT family that exercises clause learning.
void build_php(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<sat::Var>> x(static_cast<std::size_t>(pigeons));
  for (auto& row : x) {
    for (int h = 0; h < holes; ++h) row.push_back(s.new_var());
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(pos(x[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause(neg(x[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
                     neg(x[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]));
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver s;
    build_php(s, holes + 1, holes);
    EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable) << "PHP(" << holes + 1 << "," << holes << ")";
  }
}

TEST(SatSolver, PigeonholeExactFitSat) {
  Solver s;
  build_php(s, 5, 5);
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
}

/// N queens on an n x n board, one variable per square: satisfiable for
/// n >= 4, yet the false-first phase runs the search into conflicts.
void build_queens(Solver& s, int n) {
  std::vector<std::vector<sat::Var>> q(static_cast<std::size_t>(n));
  for (auto& row : q) {
    for (int c = 0; c < n; ++c) row.push_back(s.new_var());
  }
  const auto at = [&q](int r, int c) { return q[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]; };
  for (int r = 0; r < n; ++r) {
    std::vector<Lit> row;
    for (int c = 0; c < n; ++c) row.push_back(pos(at(r, c)));
    s.add_clause(row);
  }
  for (int r1 = 0; r1 < n; ++r1) {
    for (int c1 = 0; c1 < n; ++c1) {
      for (int r2 = r1; r2 < n; ++r2) {
        for (int c2 = 0; c2 < n; ++c2) {
          if (r2 == r1 && c2 <= c1) continue;
          const bool attack = r1 == r2 || c1 == c2 || r2 - r1 == c2 - c1 || r2 - r1 == c1 - c2;
          if (attack) s.add_clause(neg(at(r1, c1)), neg(at(r2, c2)));
        }
      }
    }
  }
}

/// Brute-force satisfiability of a clause list over `n` vars.
bool brute_force_sat(int n, const std::vector<std::vector<Lit>>& clauses) {
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool all = true;
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) {
        const bool val = ((mask >> l.var()) & 1u) != 0;
        if (val != l.negative()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class RandomThreeSat : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomThreeSat, AgreesWithBruteForce) {
  Rng rng(GetParam());
  const int n = 12;
  // Near the phase transition (ratio ~4.3) both outcomes occur.
  const int num_clauses = 51;
  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      cl.push_back(Lit(static_cast<sat::Var>(rng.next_below(n)), rng.next_bool(0.5)));
    }
    clauses.push_back(std::move(cl));
  }
  Solver s;
  for (int i = 0; i < n; ++i) s.new_var();
  bool trivially_unsat = false;
  for (const auto& cl : clauses) {
    if (!s.add_clause(cl)) trivially_unsat = true;
  }
  const bool expected = brute_force_sat(n, clauses);
  if (trivially_unsat) {
    EXPECT_FALSE(expected);
    return;
  }
  const SolveResult r = s.solve();
  EXPECT_EQ(r == SolveResult::Satisfiable, expected);
  if (r == SolveResult::Satisfiable) {
    // The model must actually satisfy every clause.
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) {
        if (s.model_value(l)) any = true;
      }
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomThreeSat,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u, 17u, 18u, 19u, 20u));

TEST(SatSolver, IncrementalStrengthening) {
  // Solve, then add clauses and solve again (the optimiser's usage pattern).
  Solver s;
  std::vector<sat::Var> v;
  for (int i = 0; i < 4; ++i) v.push_back(s.new_var());
  s.add_clause(std::vector<Lit>{pos(v[0]), pos(v[1]), pos(v[2]), pos(v[3])});
  int models = 0;
  while (s.solve() == SolveResult::Satisfiable) {
    ++models;
    ASSERT_LE(models, 20);
    // Block the found model.
    std::vector<Lit> block;
    for (const auto var : v) block.push_back(s.model_value(var) ? neg(var) : pos(var));
    s.add_clause(block);
  }
  EXPECT_EQ(models, 15);  // 2^4 - 1 assignments satisfy the initial clause
}

TEST(SatSolver, InterruptReturnsUnknown) {
  Solver s;
  build_php(s, 11, 10);  // hard enough not to finish instantly
  const auto r = s.solve([] { return true; });
  EXPECT_EQ(r, SolveResult::Unknown);
}

TEST(SatSolver, StatsAccumulate) {
  Solver s;
  build_php(s, 6, 5);
  s.solve();
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
}

TEST(SatSolver, UnknownVariableRejected) {
  Solver s;
  EXPECT_THROW(s.add_clause(pos(3)), std::out_of_range);
}

TEST(SatSolver, ModelValueOfUnknownVariableRejected) {
  Solver s;
  s.new_var();
  ASSERT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_THROW((void)s.model_value(sat::Var{1}), std::out_of_range);
  EXPECT_THROW((void)s.model_value(sat::Var{-1}), std::out_of_range);
}

TEST(SatSolver, ModelValueOfNegativeLiteralIsTheComplement) {
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_clause(pos(a));
  s.add_clause(neg(b));
  ASSERT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_TRUE(s.model_value(pos(a)));
  EXPECT_FALSE(s.model_value(neg(a)));
  EXPECT_FALSE(s.model_value(pos(b)));
  EXPECT_TRUE(s.model_value(neg(b)));
}

TEST(SatSolver, ProvenUnsatIsSticky) {
  // Once level 0 is contradictory every later call says so at once: the
  // optimisation loop relies on this to stop after its last bound clause.
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_clause(pos(a), pos(b));
  s.add_clause(neg(a), pos(b));
  s.add_clause(pos(a), neg(b));
  s.add_clause(neg(a), neg(b));
  ASSERT_FALSE(s.proven_unsat());
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_TRUE(s.proven_unsat());
  const std::uint64_t conflicts = s.stats().conflicts;
  EXPECT_FALSE(s.simplify());
  EXPECT_FALSE(s.add_clause(pos(s.new_var())));
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_EQ(s.stats().conflicts, conflicts);
}

TEST(SatSolver, SimplifyKeepsModelsOfTheOriginalFormula) {
  // simplify() drops satisfied clauses and strips falsified literals under
  // the level-0 units; a later model must still satisfy every clause as
  // first written.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const int n = 12;
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 40; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k) {
        cl.push_back(Lit(static_cast<sat::Var>(rng.next_below(n)), rng.next_bool(0.5)));
      }
      clauses.push_back(std::move(cl));
    }
    for (int u = 0; u < 3; ++u) {
      clauses.push_back({Lit(static_cast<sat::Var>(rng.next_below(n)), rng.next_bool(0.5))});
    }
    Solver s;
    for (int i = 0; i < n; ++i) s.new_var();
    bool consistent = true;
    for (const auto& cl : clauses) consistent = s.add_clause(cl) && consistent;
    const bool expected = brute_force_sat(n, clauses);
    EXPECT_EQ(s.simplify(), consistent) << "seed " << seed;
    const SolveResult r = s.solve();
    ASSERT_EQ(r == SolveResult::Satisfiable, expected) << "seed " << seed;
    if (r != SolveResult::Satisfiable) continue;
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) any = any || s.model_value(l);
      EXPECT_TRUE(any) << "seed " << seed;
    }
  }
}

TEST(SatSolver, VariablesAddedAfterSolveJoinTheSearch) {
  Solver s;
  const auto a = s.new_var();
  s.add_clause(pos(a));
  ASSERT_EQ(s.solve(), SolveResult::Satisfiable);
  const auto b = s.new_var();
  const auto c = s.new_var();
  s.add_clause(neg(a), pos(b));
  s.add_clause(neg(b), neg(c));
  ASSERT_EQ(s.solve(), SolveResult::Satisfiable);
  EXPECT_EQ(s.num_vars(), 3);
  EXPECT_TRUE(s.model_value(b));
  EXPECT_FALSE(s.model_value(c));
}

TEST(SatSolver, InterruptIsPolledAtEveryConflict) {
  // The engine's deadline and bound-source checks ride this hook, so it must
  // see every conflict of a search that ends with a model.
  Solver s;
  build_queens(s, 10);
  std::uint64_t polls = 0;
  ASSERT_EQ(s.solve([&polls] {
    ++polls;
    return false;
  }),
            SolveResult::Satisfiable);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_EQ(polls, s.stats().conflicts);
}

TEST(SatSolver, SolveAfterInterruptReachesTheAnswer) {
  // An interrupted solve leaves the solver at level 0 with its learnt
  // clauses; the next call picks up and finishes the proof.
  Solver s;
  build_php(s, 8, 7);
  int polls = 0;
  EXPECT_EQ(s.solve([&polls] { return ++polls == 10; }), SolveResult::Unknown);
  EXPECT_EQ(polls, 10);
  EXPECT_FALSE(s.proven_unsat());
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().conflicts, 10u);
}

TEST(SatSolver, GlucoseRestartsFireOnHardUnsat) {
  // PHP(8,7) learns thousands of clauses whose LBD keeps climbing: the
  // recent-LBD window exceeds the long-run average and the search restarts.
  Solver s;
  build_php(s, 8, 7);
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().restarts, 0u);
  EXPECT_GE(s.stats().lbd_sum, s.stats().learned);  // every LBD is >= 1
}

TEST(SatSolver, CopiedSolverEvolvesIndependently) {
  // Prefix reuse snapshots the solver by copy; clauses added to one copy
  // must not leak into the other.
  Solver original;
  build_php(original, 4, 4);
  ASSERT_EQ(original.solve(), SolveResult::Satisfiable);
  Solver copy = original;
  for (int h = 0; h < 4; ++h) copy.add_clause(neg(static_cast<sat::Var>(h)));  // pigeon 0 homeless
  EXPECT_EQ(copy.solve(), SolveResult::Unsatisfiable);
  EXPECT_FALSE(original.proven_unsat());
  EXPECT_EQ(original.solve(), SolveResult::Satisfiable);
}

// -- ReduceDB invariants ------------------------------------------------------

/// Builds a learnt clause of `size` literals over distinct fresh-ish vars.
sat::CRef alloc_learnt(sat::ClauseArena& arena, int size, std::uint32_t lbd, float activity,
                       int first_var) {
  std::vector<Lit> lits;
  for (int i = 0; i < size; ++i) lits.push_back(pos(static_cast<sat::Var>(first_var + i)));
  const sat::CRef cr = arena.alloc(lits, /*learnt=*/true);
  arena.view(cr).set_lbd(lbd);
  arena.view(cr).set_activity(activity);
  return cr;
}

TEST(ReduceDb, PinsGlueBinaryAndLockedClauses) {
  sat::ClauseArena arena;
  std::vector<sat::CRef> learnts;
  const sat::CRef glue = alloc_learnt(arena, 5, sat::ReduceDb::kGlueLbd, 0.0f, 0);
  const sat::CRef binary = alloc_learnt(arena, 2, 9, 0.0f, 10);
  const sat::CRef locked_cr = alloc_learnt(arena, 5, 9, 0.0f, 20);
  // Four candidates with distinct LBDs; the worst half (two highest) go.
  const sat::CRef c3 = alloc_learnt(arena, 5, 3, 0.0f, 30);
  const sat::CRef c4 = alloc_learnt(arena, 5, 4, 0.0f, 40);
  const sat::CRef c8 = alloc_learnt(arena, 5, 8, 0.0f, 50);
  const sat::CRef c9 = alloc_learnt(arena, 5, 9, 0.0f, 60);
  learnts = {glue, binary, locked_cr, c3, c4, c8, c9};

  sat::ReduceDb db;
  const std::size_t deleted =
      db.reduce(arena, learnts, [&](sat::CRef cr) { return cr == locked_cr; });

  EXPECT_EQ(deleted, 2u);
  EXPECT_FALSE(arena.view(glue).deleted());
  EXPECT_FALSE(arena.view(binary).deleted());
  EXPECT_FALSE(arena.view(locked_cr).deleted());
  EXPECT_FALSE(arena.view(c3).deleted());
  EXPECT_FALSE(arena.view(c4).deleted());
  EXPECT_TRUE(arena.view(c8).deleted());
  EXPECT_TRUE(arena.view(c9).deleted());
  // The learnts list was compacted to exactly the survivors.
  EXPECT_EQ(learnts.size(), 5u);
  for (const sat::CRef cr : learnts) EXPECT_FALSE(arena.view(cr).deleted());
}

TEST(ReduceDb, RanksByLbdThenActivityDeterministically) {
  sat::ClauseArena arena;
  // Equal LBD: the lower-activity clause is deleted first.
  const sat::CRef cold = alloc_learnt(arena, 5, 6, 0.1f, 0);
  const sat::CRef hot = alloc_learnt(arena, 5, 6, 5.0f, 10);
  std::vector<sat::CRef> learnts = {cold, hot};
  sat::ReduceDb db;
  EXPECT_EQ(db.reduce(arena, learnts, [](sat::CRef) { return false; }), 1u);
  EXPECT_TRUE(arena.view(cold).deleted());
  EXPECT_FALSE(arena.view(hot).deleted());
}

TEST(ReduceDb, ScheduleGrowsLinearly) {
  sat::ReduceDb db;
  EXPECT_FALSE(db.due(sat::ReduceDb::kFirstReduceConflicts - 1));
  EXPECT_TRUE(db.due(sat::ReduceDb::kFirstReduceConflicts));

  sat::ClauseArena arena;
  std::vector<sat::CRef> learnts;
  (void)db.reduce(arena, learnts, [](sat::CRef) { return false; });
  EXPECT_EQ(db.reductions(), 1u);
  // Next due point: 2*first + 1*increment (linearly growing interval).
  const std::uint64_t next =
      2 * sat::ReduceDb::kFirstReduceConflicts + sat::ReduceDb::kReduceIncrement;
  EXPECT_FALSE(db.due(next - 1));
  EXPECT_TRUE(db.due(next));
}

TEST(SatSolver, ReduceDbFiresOnHardInstanceAndStaysCorrect) {
  // PHP(8,7) needs well over kFirstReduceConflicts conflicts, so ReduceDB
  // runs at least once mid-proof; the answer must still be UNSAT and the
  // kept/deleted accounting must be populated.
  Solver s;
  build_php(s, 8, 7);
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_GT(s.stats().conflicts, sat::ReduceDb::kFirstReduceConflicts);
  EXPECT_GT(s.stats().learnt_deleted, 0u);
  EXPECT_GT(s.stats().learnt_kept, 0u);
}

TEST(SatSolver, LearntsSurviveIncrementalStrengthening) {
  // The optimiser's pattern: solve, add a tightening clause, solve again.
  // Learnt state (and the ReduceDB schedule) persists across calls without
  // corrupting correctness in either direction.
  Solver s;
  build_php(s, 7, 7);  // exact fit: SAT
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  // Forbid the hole pigeon 0 occupies; still SAT (6 remaining... 7 pigeons,
  // 7 holes minus the blocked assignment only removes one placement).
  for (int h = 0; h < 7; ++h) {
    if (s.model_value(static_cast<sat::Var>(h))) {
      s.add_clause(neg(static_cast<sat::Var>(h)));
      break;
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Satisfiable);
  const std::uint64_t conflicts_before = s.stats().conflicts;
  // Now forbid every hole for pigeon 0: UNSAT.
  for (int h = 0; h < 7; ++h) s.add_clause(neg(static_cast<sat::Var>(h)));
  EXPECT_EQ(s.solve(), SolveResult::Unsatisfiable);
  EXPECT_GE(s.stats().conflicts, conflicts_before);
}

}  // namespace
}  // namespace qxmap
