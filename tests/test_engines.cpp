#include "reason/engine.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "reason/cdcl_engine.hpp"

namespace qxmap {
namespace {

using reason::EngineKind;
using reason::make_engine;
using reason::Status;

constexpr auto kBudget = std::chrono::milliseconds(10000);

/// Engine kinds genuinely distinct in this build: without Z3 support,
/// EngineKind::Z3 degrades to CDCL, so running it would duplicate coverage.
std::vector<EngineKind> distinct_engine_kinds() {
  if (reason::z3_available()) return {EngineKind::Z3, EngineKind::Cdcl};
  return {EngineKind::Cdcl};
}

class EngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineTest, TrivialSat) {
  auto e = make_engine(GetParam());
  const int v = e->new_bool();
  e->add_clause({v + 1});
  const auto out = e->minimize(kBudget);
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 0);
  EXPECT_TRUE(e->value(v));
}

TEST_P(EngineTest, TrivialUnsat) {
  auto e = make_engine(GetParam());
  const int v = e->new_bool();
  e->add_clause({v + 1});
  e->add_clause({-(v + 1)});
  EXPECT_EQ(e->minimize(kBudget).status, Status::Unsat);
}

TEST_P(EngineTest, PrefersCheapAssignment) {
  auto e = make_engine(GetParam());
  const int a = e->new_bool();
  const int b = e->new_bool();
  e->add_clause({a + 1, b + 1});  // at least one
  e->add_cost(a, 10);
  e->add_cost(b, 3);
  const auto out = e->minimize(kBudget);
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_FALSE(e->value(a));
  EXPECT_TRUE(e->value(b));
}

TEST_P(EngineTest, ExactlyOneChoosesMinimumWeight) {
  auto e = make_engine(GetParam());
  std::vector<int> vars;
  std::vector<int> lits;
  const long long weights[] = {7, 14, 4, 21, 28};
  for (int i = 0; i < 5; ++i) {
    vars.push_back(e->new_bool());
    lits.push_back(vars.back() + 1);
  }
  e->add_exactly_one(lits);
  for (int i = 0; i < 5; ++i) e->add_cost(vars[static_cast<std::size_t>(i)], weights[i]);
  const auto out = e->minimize(kBudget);
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_TRUE(e->value(vars[2]));  // weight 4
}

TEST_P(EngineTest, HelpersProduceConsistentCircuits) {
  auto e = make_engine(GetParam());
  const int a = e->new_bool();
  const int b = e->new_bool();
  const int t = e->make_and(a + 1, b + 1);
  e->add_clause({a + 1});
  e->add_clause({b + 1});
  ASSERT_EQ(e->minimize(kBudget).status, Status::Optimal);
  EXPECT_TRUE(e->value(t));
}

TEST_P(EngineTest, MakeOrAndEquality) {
  auto e = make_engine(GetParam());
  const int a = e->new_bool();
  const int b = e->new_bool();
  const int o = e->make_or({a + 1, b + 1});
  e->add_equal_lits(a + 1, -(b + 1));  // a = !b
  e->add_clause({-(a + 1)});           // a false -> b true -> or true
  ASSERT_EQ(e->minimize(kBudget).status, Status::Optimal);
  EXPECT_TRUE(e->value(b));
  EXPECT_TRUE(e->value(o));
}

/// Brute-force reference for small weighted MaxSAT instances.
struct BruteInstance {
  int num_vars = 0;
  std::vector<std::vector<int>> clauses;           // DIMACS-like literals
  std::vector<std::pair<int, long long>> costs;    // (var, weight)
};

long long brute_min_cost(const BruteInstance& inst) {
  long long best = std::numeric_limits<long long>::max();
  for (std::uint32_t mask = 0; mask < (1u << inst.num_vars); ++mask) {
    bool ok = true;
    for (const auto& cl : inst.clauses) {
      bool any = false;
      for (const int l : cl) {
        const int var = std::abs(l) - 1;
        const bool val = ((mask >> var) & 1u) != 0;
        if (val == (l > 0)) {
          any = true;
          break;
        }
      }
      if (!any) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    long long c = 0;
    for (const auto& [var, w] : inst.costs) {
      if ((mask >> var) & 1u) c += w;
    }
    best = std::min(best, c);
  }
  return best;
}

class EngineRandomOptimization
    : public ::testing::TestWithParam<std::tuple<EngineKind, std::uint64_t>> {};

TEST_P(EngineRandomOptimization, MatchesBruteForceMinimum) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  BruteInstance inst;
  inst.num_vars = 10;
  // Random satisfiable-ish 2/3-SAT with random weights (the paper's Eq. 5
  // uses weights 4 and multiples of 7; draw from that set).
  const long long weight_pool[] = {4, 7, 14, 21};
  for (int c = 0; c < 18; ++c) {
    std::vector<int> cl;
    const int len = 2 + static_cast<int>(rng.next_below(2));
    for (int k = 0; k < len; ++k) {
      const int var = static_cast<int>(rng.next_below(10)) + 1;
      cl.push_back(rng.next_bool(0.5) ? var : -var);
    }
    inst.clauses.push_back(std::move(cl));
  }
  for (int v = 0; v < 10; ++v) {
    if (rng.next_bool(0.7)) {
      inst.costs.emplace_back(v, weight_pool[rng.next_below(4)]);
    }
  }

  const long long expected = brute_min_cost(inst);

  auto e = make_engine(kind);
  for (int v = 0; v < inst.num_vars; ++v) e->new_bool();
  for (const auto& cl : inst.clauses) e->add_clause(cl);
  for (const auto& [var, w] : inst.costs) e->add_cost(var, w);
  const auto out = e->minimize(kBudget);

  if (expected == std::numeric_limits<long long>::max()) {
    EXPECT_EQ(out.status, Status::Unsat);
    return;
  }
  ASSERT_EQ(out.status, Status::Optimal);
  // Recompute the model cost independently of the engine's report.
  long long model_cost = 0;
  for (const auto& [var, w] : inst.costs) {
    if (e->value(var)) model_cost += w;
  }
  EXPECT_EQ(model_cost, expected);
  // The model must satisfy all clauses.
  for (const auto& cl : inst.clauses) {
    bool any = false;
    for (const int l : cl) {
      if (e->value(std::abs(l) - 1) == (l > 0)) any = true;
    }
    EXPECT_TRUE(any);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, EngineRandomOptimization,
    ::testing::Combine(::testing::ValuesIn(distinct_engine_kinds()),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u)));

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineTest,
                         ::testing::ValuesIn(distinct_engine_kinds()));

TEST(EngineFactory, Names) {
  // Without Z3 support compiled in, make_engine(Z3) degrades to CDCL.
  const std::string z3_name = reason::z3_available() ? "z3" : "cdcl";
  EXPECT_EQ(make_engine(EngineKind::Z3)->name(), z3_name);
  EXPECT_EQ(make_engine(EngineKind::Cdcl)->name(), "cdcl");
  EXPECT_EQ(reason::to_string(EngineKind::Z3), "z3");
  EXPECT_EQ(reason::to_string(EngineKind::Cdcl), "cdcl");
}

TEST(CdclDescending, MatchesBruteForceOnRandomInstances) {
  // The descending-bound loop is the CDCL engine's only way to the Eq. (5)
  // minimum (Sec. 3.3); its status and cost must match enumeration.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    BruteInstance inst;
    inst.num_vars = 9;
    for (int c = 0; c < 15; ++c) {
      std::vector<int> cl;
      for (int k = 0; k < 3; ++k) {
        const int var = static_cast<int>(rng.next_below(9)) + 1;
        cl.push_back(rng.next_bool(0.5) ? var : -var);
      }
      inst.clauses.push_back(std::move(cl));
    }
    for (int v = 0; v < 9; ++v) {
      if (rng.next_bool(0.6)) inst.costs.emplace_back(v, 3 + 2 * v);
    }

    reason::CdclEngine e;
    for (int v = 0; v < inst.num_vars; ++v) e.new_bool();
    for (const auto& cl : inst.clauses) e.add_clause(cl);
    for (const auto& [var, w] : inst.costs) e.add_cost(var, w);
    const auto out = e.minimize(kBudget);
    const long long expected = brute_min_cost(inst);
    if (expected == std::numeric_limits<long long>::max()) {
      EXPECT_EQ(out.status, Status::Unsat) << "seed " << seed;
      continue;
    }
    ASSERT_EQ(out.status, Status::Optimal) << "seed " << seed;
    long long model_cost = 0;
    for (const auto& [var, w] : inst.costs) {
      if (e.value(var)) model_cost += w;
    }
    EXPECT_EQ(model_cost, expected) << "seed " << seed;
    EXPECT_EQ(out.cost, expected) << "seed " << seed;
  }
}

TEST(CdclDescending, CostFreeFormulaIsOptimalAtZero) {
  // With no cost terms the first model is already optimal; an upper bound
  // has nothing to constrain and must not turn the formula Unsat.
  for (const bool bounded : {false, true}) {
    reason::CdclEngine e;
    const int a = e.new_bool();
    const int b = e.new_bool();
    e.add_clause({a + 1, b + 1});
    e.add_clause({-(a + 1)});
    if (bounded) e.set_upper_bound(0);
    const auto out = e.minimize(kBudget);
    EXPECT_EQ(out.status, Status::Optimal) << "bounded " << bounded;
    EXPECT_EQ(out.cost, 0) << "bounded " << bounded;
    EXPECT_FALSE(e.value(a));
    EXPECT_TRUE(e.value(b));
  }
}

TEST(CdclDescending, ValueWithoutModelThrows) {
  reason::CdclEngine e;
  const int a = e.new_bool();
  EXPECT_THROW((void)e.value(a), std::logic_error);
  e.add_clause({a + 1});
  e.add_clause({-(a + 1)});
  ASSERT_EQ(e.minimize(kBudget).status, Status::Unsat);
  EXPECT_THROW((void)e.value(a), std::logic_error);
}

TEST(EngineValidation, CostWeightMustBePositive) {
  for (const auto kind : {EngineKind::Z3, EngineKind::Cdcl}) {
    auto e = make_engine(kind);
    const int v = e->new_bool();
    EXPECT_THROW(e->add_cost(v, 0), std::invalid_argument);
    EXPECT_THROW(e->add_cost(v, -3), std::invalid_argument);
  }
}

}  // namespace
}  // namespace qxmap
