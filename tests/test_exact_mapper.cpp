#include "exact/exact_mapper.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "arch/architectures.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/reference_search.hpp"
#include "exact/swap_synthesis.hpp"

namespace qxmap {
namespace {

using exact::ExactOptions;
using exact::map_exact;
using exact::MappingResult;
using exact::PermutationStrategy;
using reason::EngineKind;
using reason::Status;

ExactOptions fast_options(EngineKind kind) {
  ExactOptions opt;
  opt.engine = kind;
  opt.budget = std::chrono::milliseconds(30000);
  return opt;
}

/// Independently certified minimum F for a circuit on QX4 (unrestricted).
long long certified_minimum(const Circuit& c) {
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> pts;
  for (std::size_t k = 1; k < cnots.size(); ++k) pts.push_back(k);
  const auto cm = arch::ibm_qx4();
  exact::CostModel costs;
  costs.swap_cost = 7;
  const auto r = exact::minimal_cost_reference(cnots, c.num_qubits(), cm, pts, costs);
  EXPECT_TRUE(r.feasible);
  return r.cost_f;
}

class ExactMapperTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ExactMapperTest, PaperExampleHasMinimalCost4) {
  const Circuit c = bench::paper_example_circuit();
  const auto res = map_exact(c, arch::ibm_qx4(), fast_options(GetParam()));
  EXPECT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cost_f, 4);
  EXPECT_EQ(res.mapped.size(), c.size() + 4);
  EXPECT_EQ(res.swaps_inserted, 0);
  EXPECT_EQ(res.cnots_reversed, 1);
  EXPECT_TRUE(res.verified) << res.verify_message;
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
}

TEST_P(ExactMapperTest, MatchesReferenceOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Circuit c = bench::random_circuit(4, 3, 6, seed, "rnd");
    const auto res = map_exact(c, arch::ibm_qx4(), fast_options(GetParam()));
    ASSERT_EQ(res.status, Status::Optimal) << "seed " << seed;
    EXPECT_EQ(res.cost_f, certified_minimum(c)) << "seed " << seed;
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

TEST_P(ExactMapperTest, SubsetModePreservesMinimalityOnSmallCases) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Circuit c = bench::random_circuit(3, 2, 6, seed, "rnd3");
    auto opt = fast_options(GetParam());
    opt.use_subsets = true;
    const auto res = map_exact(c, arch::ibm_qx4(), opt);
    ASSERT_EQ(res.status, Status::Optimal);
    // Sec. 4.1: still minimal on all evaluated cases.
    EXPECT_EQ(res.cost_f, certified_minimum(c)) << "seed " << seed;
    // A zero-cost subset short-circuits the remaining instances (nothing can
    // beat the objective's lower bound); otherwise every subset is solved.
    EXPECT_GE(res.instances_solved, res.cost_f == 0 ? 1 : 2);
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

TEST_P(ExactMapperTest, StrategiesAreNeverBelowTheMinimum) {
  const Circuit c = bench::random_circuit(4, 4, 7, 99, "strat");
  const long long minimum = certified_minimum(c);
  for (const auto strategy :
       {PermutationStrategy::DisjointQubits, PermutationStrategy::OddGates,
        PermutationStrategy::QubitTriangle}) {
    auto opt = fast_options(GetParam());
    opt.strategy = strategy;
    const auto res = map_exact(c, arch::ibm_qx4(), opt);
    if (res.status == Status::Unsat) continue;  // over-restricted is allowed
    ASSERT_EQ(res.status, Status::Optimal) << exact::to_string(strategy);
    EXPECT_GE(res.cost_f, minimum) << exact::to_string(strategy);
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ExactMapperTest,
                         ::testing::Values(EngineKind::Z3, EngineKind::Cdcl));

TEST(ExactMapper, SingleQubitGatesAreReattached) {
  Circuit c(2, "oneq");
  c.h(0);
  c.t(1);
  c.cnot(0, 1);
  c.h(1);
  const auto res = map_exact(c, arch::ibm_qx4(), fast_options(EngineKind::Z3));
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.mapped.counts().single_qubit,
            c.counts().single_qubit + 4 * res.cnots_reversed);
  EXPECT_TRUE(res.verified) << res.verify_message;
}

TEST(ExactMapper, CircuitWithoutCnots) {
  Circuit c(3, "no-cnot");
  c.h(0);
  c.t(2);
  const auto res = map_exact(c, arch::ibm_qx4(), fast_options(EngineKind::Z3));
  EXPECT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cost_f, 0);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.permutation_points, 1);
}

TEST(ExactMapper, MeasureAndBarrierSurvive) {
  Circuit c(2, "meas");
  c.h(0);
  c.append(Gate::barrier());
  c.cnot(0, 1);
  c.append(Gate::measure(0));
  c.append(Gate::measure(1));
  const auto res = map_exact(c, arch::ibm_qx4(), fast_options(EngineKind::Z3));
  ASSERT_EQ(res.status, Status::Optimal);
  int measures = 0;
  int barriers = 0;
  for (const auto& g : res.mapped) {
    measures += g.kind == OpKind::Measure;
    barriers += g.kind == OpKind::Barrier;
  }
  EXPECT_EQ(measures, 2);
  EXPECT_EQ(barriers, 1);
}

TEST(ExactMapper, SwapsAppearWhenForced) {
  // 3 CNOT pairs that cannot coexist on a line: expect >= 1 SWAP.
  Circuit c(3, "line-conflict");
  c.cnot(0, 1);
  c.cnot(0, 2);
  c.cnot(1, 2);
  const auto res = map_exact(c, arch::linear(3), fast_options(EngineKind::Z3));
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_GE(res.swaps_inserted, 1);
  EXPECT_TRUE(res.verified) << res.verify_message;
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::linear(3)));
}

TEST(ExactMapper, ReportsPermutationPointCount) {
  const Circuit c = bench::paper_example_circuit();
  auto opt = fast_options(EngineKind::Z3);
  opt.strategy = PermutationStrategy::QubitTriangle;
  const auto res = map_exact(c, arch::ibm_qx4(), opt);
  // Example 10: G' = {g2}, plus the free initial mapping -> 2.
  EXPECT_EQ(res.permutation_points, 2);
}

TEST(ExactMapper, ValidationErrors) {
  Circuit too_big(6);
  too_big.cnot(0, 5);
  EXPECT_THROW(map_exact(too_big, arch::ibm_qx4(), {}), std::invalid_argument);

  // Raw swap pseudo-gates are no longer rejected: the mapper decomposes
  // them up front and routes the elementary form.
  Circuit with_swap(2);
  with_swap.swap(0, 1);
  const auto swap_res = map_exact(with_swap, arch::ibm_qx4(), {});
  EXPECT_EQ(swap_res.status, reason::Status::Optimal);
  EXPECT_EQ(swap_res.mapped.counts().swap, 0);
  EXPECT_TRUE(exact::satisfies_coupling(swap_res.mapped, arch::ibm_qx4()));

  // Full-architecture mode on a big machine requires subsets.
  Circuit small(2);
  small.cnot(0, 1);
  ExactOptions opt;
  EXPECT_THROW(map_exact(small, arch::ibm_qx5(), opt), std::invalid_argument);
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(60000);
  const auto res = map_exact(small, arch::ibm_qx5(), opt);
  EXPECT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cost_f, 0);

  // With n == m there is no proper subset to pick, so use_subsets still
  // leaves one full-architecture instance; the error names that limit
  // instead of asking for the use_subsets the caller already set.
  Circuit wide(16);
  wide.cnot(0, 15);
  EXPECT_THROW(
      {
        try {
          (void)map_exact(wide, arch::ibm_qx5(), opt);
        } catch (const std::invalid_argument& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("full-architecture instance needs m <= 8"), std::string::npos)
              << what;
          EXPECT_EQ(what.find("set use_subsets"), std::string::npos) << what;
          throw;
        }
      },
      std::invalid_argument);
}

TEST(ExactMapper, BidirectedArchitectureUsesCheapSwaps) {
  // On Tokyo (bidirected) a SWAP costs 3 and no reversal is ever needed.
  Circuit c(3, "tokyo");
  c.cnot(0, 1);
  c.cnot(1, 2);
  c.cnot(0, 2);
  ExactOptions opt = fast_options(EngineKind::Z3);
  opt.use_subsets = true;
  const auto res = map_exact(c, arch::ibm_tokyo(), opt);
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cnots_reversed, 0);
  EXPECT_EQ(res.cost_f, 0);  // a triangle exists on Tokyo
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_tokyo()));
}

}  // namespace
}  // namespace qxmap
