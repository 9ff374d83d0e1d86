#include "reason/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "sat/solver.hpp"

namespace qxmap {
namespace {

using sat::Lit;
using sat::SolveResult;

/// A ReasoningEngine that only collects the helpers' variables and clauses
/// into a plain solver, so the models of an encoding can be enumerated.
class ClauseSink final : public reason::ReasoningEngine {
 public:
  int new_bool() override { return solver.new_var(); }
  void add_clause(const std::vector<int>& lits) override {
    std::vector<Lit> clause;
    for (const int l : lits) clause.push_back(Lit(std::abs(l) - 1, l < 0));
    solver.add_clause(std::move(clause));
  }
  void add_cost(int /*var*/, long long /*weight*/) override {}
  reason::Outcome minimize(std::chrono::milliseconds /*budget*/) override { return {}; }
  [[nodiscard]] bool value(int var) const override { return solver.model_value(var); }
  [[nodiscard]] std::string name() const override { return "clause-sink"; }

  /// Enumerates all models over the first `n` variables by blocking; returns
  /// them as bitmasks.
  std::vector<std::uint32_t> all_models(int n) {
    std::vector<std::uint32_t> models;
    while (solver.solve() == SolveResult::Satisfiable) {
      std::uint32_t mask = 0;
      std::vector<int> block;
      for (int v = 0; v < n; ++v) {
        if (value(v)) mask |= 1u << v;
        block.push_back(value(v) ? -(v + 1) : v + 1);
      }
      models.push_back(mask);
      add_clause(block);
      if (models.size() > 4096) break;
    }
    return models;
  }

  sat::Solver solver;
};

/// `n` fresh variables as positive literals.
std::vector<int> fresh_lits(ClauseSink& e, int n) {
  std::vector<int> lits;
  for (int i = 0; i < n; ++i) lits.push_back(e.new_bool() + 1);
  return lits;
}

int popcount_in(std::uint32_t mask, int n) {
  int c = 0;
  for (int i = 0; i < n; ++i) {
    if ((mask >> i) & 1u) ++c;
  }
  return c;
}

/// Adds the unit clause fixing literal `l` to `on`.
void fix(ClauseSink& e, int l, bool on) { e.add_clause({on ? l : -l}); }

// Sizes 1-15 cover both sides of the switch from the pairwise encoding to
// the ladder above 6 literals.
class AmoSize : public ::testing::TestWithParam<int> {};

TEST_P(AmoSize, AtMostOneAllowsExactlyNPlusOneModels) {
  const int n = GetParam();
  ClauseSink e;
  e.add_at_most_one(fresh_lits(e, n));
  const auto models = e.all_models(n);
  // Empty assignment + n singletons.
  EXPECT_EQ(models.size(), static_cast<std::size_t>(n) + 1);
  for (const auto mask : models) EXPECT_LE(popcount_in(mask, n), 1);
}

INSTANTIATE_TEST_SUITE_P(SmallAndLadder, AmoSize, ::testing::Range(1, 16));

class ExactlyOneSize : public ::testing::TestWithParam<int> {};

TEST_P(ExactlyOneSize, ExactlyOneAllowsExactlyNModels) {
  const int n = GetParam();
  ClauseSink e;
  e.add_exactly_one(fresh_lits(e, n));
  const auto models = e.all_models(n);
  EXPECT_EQ(models.size(), static_cast<std::size_t>(n));
  for (const auto mask : models) EXPECT_EQ(popcount_in(mask, n), 1);
}

INSTANTIATE_TEST_SUITE_P(SmallAndLadder, ExactlyOneSize, ::testing::Range(1, 16));

TEST(Encodings, MakeAndTruthTable) {
  for (int av = 0; av <= 1; ++av) {
    for (int bv = 0; bv <= 1; ++bv) {
      ClauseSink e;
      const auto ab = fresh_lits(e, 2);
      const int t = e.make_and(ab[0], ab[1]);
      fix(e, ab[0], av == 1);
      fix(e, ab[1], bv == 1);
      ASSERT_EQ(e.solver.solve(), SolveResult::Satisfiable);
      EXPECT_EQ(e.value(t), av == 1 && bv == 1);
    }
  }
}

TEST(Encodings, MakeOrTruthTable) {
  for (std::uint32_t mask = 0; mask < 8; ++mask) {
    ClauseSink e;
    const auto lits = fresh_lits(e, 3);
    const int t = e.make_or(lits);
    for (int i = 0; i < 3; ++i) fix(e, lits[static_cast<std::size_t>(i)], ((mask >> i) & 1u) != 0);
    ASSERT_EQ(e.solver.solve(), SolveResult::Satisfiable);
    EXPECT_EQ(e.value(t), mask != 0);
  }
}

TEST(Encodings, MakeOrEmptyIsFalse) {
  ClauseSink e;
  const int t = e.make_or({});
  ASSERT_EQ(e.solver.solve(), SolveResult::Satisfiable);
  EXPECT_FALSE(e.value(t));
}

TEST(Encodings, AddEqualForcesEquality) {
  ClauseSink e;
  const auto ab = fresh_lits(e, 2);
  e.add_equal_lits(ab[0], ab[1]);
  fix(e, ab[0], true);
  ASSERT_EQ(e.solver.solve(), SolveResult::Satisfiable);
  EXPECT_TRUE(e.value(ab[1] - 1));
  fix(e, ab[1], false);
  EXPECT_EQ(e.solver.solve(), SolveResult::Unsatisfiable);
}

TEST(Encodings, ImpliesEqualOnlyBindsWhenAntecedentHolds) {
  ClauseSink e;
  const auto lits = fresh_lits(e, 3);  // antecedent, a, b
  e.add_implies_equal(lits[0], lits[1], lits[2]);
  // With the antecedent false, a and b are free: a=1, b=0 must be satisfiable.
  fix(e, lits[0], false);
  fix(e, lits[1], true);
  fix(e, lits[2], false);
  EXPECT_EQ(e.solver.solve(), SolveResult::Satisfiable);
}

TEST(Encodings, ImpliesEqualBindsWhenAntecedentTrue) {
  ClauseSink e;
  const auto lits = fresh_lits(e, 3);  // antecedent, a, b
  e.add_implies_equal(lits[0], lits[1], lits[2]);
  fix(e, lits[0], true);
  fix(e, lits[1], true);
  fix(e, lits[2], false);
  EXPECT_EQ(e.solver.solve(), SolveResult::Unsatisfiable);
}

}  // namespace
}  // namespace qxmap
