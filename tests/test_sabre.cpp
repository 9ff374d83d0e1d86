#include "heuristic/sabre_mapper.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "arch/architectures.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/reference_search.hpp"
#include "exact/swap_synthesis.hpp"
#include "sim/equivalence.hpp"

namespace qxmap {
namespace {

using heuristic::map_sabre;
using heuristic::SabreOptions;

long long certified_minimum(const Circuit& c, const arch::CouplingMap& cm) {
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> pts;
  for (std::size_t k = 1; k < cnots.size(); ++k) pts.push_back(k);
  exact::CostModel costs;
  costs.swap_cost = exact::swap_gate_cost(cm);
  return exact::minimal_cost_reference(cnots, c.num_qubits(), cm, pts, costs).cost_f;
}

TEST(Sabre, ProducesValidMappingsOnQx4) {
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit c = bench::random_circuit(5, 8, 12, seed, "sabre");
    const auto res = map_sabre(c, cm);
    EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm)) << "seed " << seed;
    EXPECT_TRUE(res.verified) << res.verify_message;
    const auto eq =
        sim::check_mapped_circuit(c, res.mapped, res.initial_layout, res.final_layout);
    EXPECT_TRUE(eq.equivalent) << eq.message;
    EXPECT_GE(res.cost_f, certified_minimum(c, cm));
    EXPECT_EQ(res.engine_name, "sabre");
  }
}

TEST(Sabre, DeterministicPerSeed) {
  const Circuit c = bench::random_circuit(5, 5, 15, 7, "det");
  SabreOptions opt;
  opt.seed = 99;
  const auto a = map_sabre(c, arch::ibm_qx4(), opt);
  const auto b = map_sabre(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(a.mapped, b.mapped);
  EXPECT_EQ(a.initial_layout, b.initial_layout);
}

TEST(Sabre, BidirectionalPassesChooseNonTrivialInitialLayout) {
  // A circuit whose hot pair (3, 4) is far apart under the trivial layout;
  // the warm-up passes should move it together.
  Circuit c(5, "hot-pair");
  for (int i = 0; i < 6; ++i) c.cnot(3, 4);
  const auto res = map_sabre(c, arch::ibm_qx4());
  EXPECT_EQ(res.swaps_inserted, 0);
  EXPECT_TRUE(res.verified) << res.verify_message;
}

TEST(Sabre, SingleQubitGatesFollowTheirLogicalQubit) {
  Circuit c(3, "oneq");
  c.h(0);
  c.cnot(0, 1);
  c.t(1);
  c.cnot(1, 2);
  c.h(2);
  const auto res = map_sabre(c, arch::ibm_qx4());
  const auto eq = sim::check_mapped_circuit(c, res.mapped, res.initial_layout, res.final_layout);
  EXPECT_TRUE(eq.equivalent) << eq.message;
}

TEST(Sabre, MeasureAndBarrierHandled) {
  Circuit c(2, "meas");
  c.h(0);
  c.append(Gate::barrier());
  c.cnot(0, 1);
  c.append(Gate::measure(1));
  const auto res = map_sabre(c, arch::ibm_qx4());
  int measures = 0;
  for (const auto& g : res.mapped) measures += g.kind == OpKind::Measure;
  EXPECT_EQ(measures, 1);
}

TEST(Sabre, WorksOnLargeArchitectures) {
  const auto cm = arch::ibm_tokyo();
  const Circuit c = bench::random_circuit(16, 10, 40, 17, "big");
  const auto res = map_sabre(c, cm);
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
  EXPECT_EQ(res.cnots_reversed, 0);  // bidirected map
}

TEST(Sabre, WorksOnHeavyHexArchitectures) {
  // SABRE is the only router for the wide heavy-hex layouts.
  const auto hex27 = arch::ibm_hex27();
  const auto hex65 = arch::ibm_hex65();
  for (const auto& [cm, c] : {std::pair{hex27, bench::su4_random_circuit(27, 3, 41, "hex27")},
                              std::pair{hex65, bench::su4_random_circuit(40, 2, 42, "hex65")}}) {
    const auto res = map_sabre(c, cm);
    EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm)) << c.name();
    EXPECT_TRUE(res.verified) << c.name() << ": " << res.verify_message;
    EXPECT_EQ(res.cnots_reversed, 0) << c.name();  // bidirected: no H repair
    EXPECT_EQ(res.cost_f, 3LL * res.swaps_inserted) << c.name();
  }
}

TEST(Sabre, ReportsTheGateCountObjectiveByDefault) {
  // On QX4 a SWAP costs 7 gates and a reversal 4 (Fig. 3), so the default
  // objective equals the inserted-gate count.
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit c = bench::random_circuit(5, 8, 12, seed, "sabre-gc");
    const auto res = map_sabre(c, cm);
    EXPECT_EQ(res.objective, "gate_count");
    EXPECT_EQ(res.cost_f, 7LL * res.swaps_inserted + 4LL * res.cnots_reversed) << "seed " << seed;
    EXPECT_EQ(res.objective_cost, res.cost_f) << "seed " << seed;
    EXPECT_GT(res.objective_cost, 0) << "seed " << seed;
  }
}

TEST(Sabre, ErrorWeightedObjectiveSurfacesInTheResult) {
  // The objective only re-prices the result; routing is distance-driven, so
  // both objectives produce the same mapped circuit.
  const auto cm = arch::ibm_qx4();
  const Circuit c = bench::random_circuit(4, 4, 8, 5, "sabre-ew");
  SabreOptions weighted;
  weighted.costs.objective = exact::CostObjective::ErrorWeighted;
  const auto res = map_sabre(c, cm, weighted);
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
  EXPECT_EQ(res.objective, "error_weighted");
  EXPECT_EQ(res.objective_cost,
            weighted.costs.resolved(cm).result_cost(res.swaps_inserted, res.cnots_reversed));
  const auto plain = map_sabre(c, cm);
  EXPECT_EQ(res.mapped, plain.mapped);
  EXPECT_EQ(res.initial_layout, plain.initial_layout);
}

TEST(Sabre, ZeroBidirectionalRoundsKeepTheTrivialLayout) {
  Circuit c(5, "hot-pair");
  for (int i = 0; i < 6; ++i) c.cnot(3, 4);
  SabreOptions opt;
  opt.bidirectional_rounds = 0;
  const auto res = map_sabre(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.initial_layout, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
  EXPECT_TRUE(res.verified) << res.verify_message;
}

TEST(Sabre, VerifyOffSkipsTheGf2Check) {
  const auto cm = arch::ibm_qx4();
  const Circuit c = bench::random_circuit(5, 4, 10, 3, "sabre-noverify");
  SabreOptions opt;
  opt.verify = false;
  const auto res = map_sabre(c, cm, opt);
  EXPECT_FALSE(res.verified);
  EXPECT_TRUE(res.verify_message.empty());
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_EQ(res.mapped, map_sabre(c, cm).mapped);
}

TEST(Sabre, LookaheadHelpsOnAverage) {
  // With lookahead disabled the mapper is purely greedy; over a batch of
  // circuits the lookahead version should not be worse in total.
  const auto cm = arch::ibm_qx5();
  long long with = 0;
  long long without = 0;
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const Circuit c = bench::random_circuit(12, 0, 30, seed, "look");
    SabreOptions lookahead;
    SabreOptions greedy;
    greedy.extended_set_weight = 0.0;
    with += map_sabre(c, cm, lookahead).cost_f;
    without += map_sabre(c, cm, greedy).cost_f;
  }
  EXPECT_LE(with, without + 14);  // allow one-swap noise in the comparison
}

TEST(Sabre, Validation) {
  Circuit big(6);
  big.cnot(0, 5);
  EXPECT_THROW(map_sabre(big, arch::ibm_qx4(), {}), std::invalid_argument);
  // Raw swap pseudo-gates route directly (self-expanded by the mapper).
  Circuit has_swap(2);
  has_swap.swap(0, 1);
  const auto swap_res = map_sabre(has_swap, arch::ibm_qx4(), {});
  EXPECT_EQ(swap_res.mapped.counts().swap, 0);
  EXPECT_TRUE(exact::satisfies_coupling(swap_res.mapped, arch::ibm_qx4()));
  Circuit fine(2);
  fine.cnot(0, 1);
  EXPECT_THROW(map_sabre(fine, arch::CouplingMap(3, {{0, 1}}), {}), std::invalid_argument);
}

TEST(Sabre, ComparableToOtherHeuristicsOnTable1) {
  const auto cm = arch::ibm_qx4();
  const Circuit c = bench::table1_benchmark("ham3_102").build();
  const auto res = map_sabre(c, cm);
  EXPECT_TRUE(res.verified) << res.verify_message;
  // Sanity envelope: within 10x of the certified optimum's overhead + slack.
  EXPECT_LE(res.cost_f, 10 * certified_minimum(c, cm) + 50);
}

}  // namespace
}  // namespace qxmap
