#include "heuristic/astar_mapper.hpp"
#include "heuristic/sabre_mapper.hpp"
#include "heuristic/stochastic_swap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

#include "arch/architectures.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "common/rng.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/reference_search.hpp"
#include "exact/swap_synthesis.hpp"
#include "qasm/writer.hpp"
#include "sim/equivalence.hpp"

namespace qxmap {
namespace {

using heuristic::AStarOptions;
using heuristic::map_astar;
using heuristic::map_stochastic_swap;
using heuristic::StochasticSwapOptions;

long long certified_minimum(const Circuit& c, const arch::CouplingMap& cm) {
  std::vector<Gate> cnots;
  for (const auto& g : c) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> pts;
  for (std::size_t k = 1; k < cnots.size(); ++k) pts.push_back(k);
  exact::CostModel costs;
  costs.swap_cost = exact::swap_gate_cost(cm);
  const auto r = exact::minimal_cost_reference(cnots, c.num_qubits(), cm, pts, costs);
  EXPECT_TRUE(r.feasible);
  return r.cost_f;
}

void expect_valid_mapping(const Circuit& original, const exact::MappingResult& res,
                          const arch::CouplingMap& cm) {
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
  if (cm.num_physical() <= 8) {
    const auto eq = sim::check_mapped_circuit(original, res.mapped, res.initial_layout,
                                              res.final_layout);
    EXPECT_TRUE(eq.equivalent) << eq.message;
  }
  EXPECT_EQ(res.cost_f,
            static_cast<long long>(res.mapped.size()) - static_cast<long long>(original.size()));
}

TEST(StochasticSwap, MapsTable1StyleCircuits) {
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit c = bench::random_circuit(5, 8, 12, seed, "stoch");
    const auto res = map_stochastic_swap(c, cm);
    expect_valid_mapping(c, res, cm);
    EXPECT_GE(res.cost_f, certified_minimum(c, cm));
    EXPECT_EQ(res.engine_name, "qiskit-stochastic");
  }
}

TEST(StochasticSwap, DeterministicPerSeed) {
  const Circuit c = bench::random_circuit(5, 5, 15, 7, "det");
  StochasticSwapOptions opt;
  opt.seed = 123;
  const auto a = map_stochastic_swap(c, arch::ibm_qx4(), opt);
  const auto b = map_stochastic_swap(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(a.mapped, b.mapped);
  EXPECT_EQ(a.cost_f, b.cost_f);
}

TEST(StochasticSwap, BestOfRunsProtocolNeverHurts) {
  // The paper ran Qiskit 5 times and kept the best.
  const Circuit c = bench::random_circuit(5, 6, 14, 21, "runs");
  StochasticSwapOptions one;
  one.seed = 9;
  one.runs = 1;
  StochasticSwapOptions five;
  five.seed = 9;
  five.runs = 5;
  const auto r1 = map_stochastic_swap(c, arch::ibm_qx4(), one);
  const auto r5 = map_stochastic_swap(c, arch::ibm_qx4(), five);
  EXPECT_LE(r5.mapped.size(), r1.mapped.size());
  EXPECT_EQ(r5.instances_solved, 5);
}

TEST(StochasticSwap, WorksOnLargerArchitectures) {
  const auto cm = arch::ibm_qx5();
  const Circuit c = bench::random_circuit(10, 10, 25, 3, "qx5");
  const auto res = map_stochastic_swap(c, cm);
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
}

TEST(StochasticSwap, Validation) {
  Circuit big(6);
  big.cnot(0, 5);
  EXPECT_THROW(map_stochastic_swap(big, arch::ibm_qx4(), {}), std::invalid_argument);
  // Raw swap pseudo-gates route directly (self-expanded by the mapper).
  Circuit has_swap(2);
  has_swap.swap(0, 1);
  const auto swap_res = map_stochastic_swap(has_swap, arch::ibm_qx4(), {});
  EXPECT_EQ(swap_res.mapped.counts().swap, 0);
  EXPECT_TRUE(exact::satisfies_coupling(swap_res.mapped, arch::ibm_qx4()));
  Circuit fine(2);
  fine.cnot(0, 1);
  StochasticSwapOptions bad;
  bad.trials = 0;
  EXPECT_THROW(map_stochastic_swap(fine, arch::ibm_qx4(), bad), std::invalid_argument);
  EXPECT_THROW(map_stochastic_swap(fine, arch::CouplingMap(3, {{0, 1}}), {}),
               std::invalid_argument);
}

TEST(AStar, MapsTable1StyleCircuits) {
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit c = bench::random_circuit(5, 8, 12, seed, "astar");
    const auto res = map_astar(c, cm);
    expect_valid_mapping(c, res, cm);
    EXPECT_GE(res.cost_f, certified_minimum(c, cm));
    EXPECT_EQ(res.engine_name, "astar");
  }
}

TEST(AStar, DeterministicAlways) {
  const Circuit c = bench::random_circuit(5, 5, 15, 7, "det");
  const auto a = map_astar(c, arch::ibm_qx4());
  const auto b = map_astar(c, arch::ibm_qx4());
  EXPECT_EQ(a.mapped, b.mapped);
}

TEST(AStar, HandlesAlreadyMappableCircuit) {
  Circuit c(2, "simple");
  c.cnot(1, 0);  // directly on a QX4 edge under the trivial layout
  const auto res = map_astar(c, arch::ibm_qx4());
  EXPECT_EQ(res.swaps_inserted, 0);
  EXPECT_EQ(res.cost_f, 0);
}

TEST(AStar, WorksOnTokyo) {
  const auto cm = arch::ibm_tokyo();
  const Circuit c = bench::random_circuit(12, 5, 20, 11, "tokyo");
  const auto res = map_astar(c, cm);
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
  EXPECT_TRUE(res.verified) << res.verify_message;
  // Bidirected couplings: no H repair ever needed.
  EXPECT_EQ(res.cnots_reversed, 0);
}

TEST(AStar, SearchBudgetRespected) {
  const Circuit c = bench::random_circuit(10, 0, 12, 2, "budget");
  AStarOptions opt;
  opt.max_expansions = 1;  // absurdly small: must fail cleanly on QX5
  EXPECT_THROW(map_astar(c, arch::ibm_qx5(), opt), std::invalid_argument);
}

TEST(AStar, UnclosableLayerFailsWithinTheMemoryBudget) {
  // hex27 at 20 logical qubits: the layer search cannot close some layers.
  // Unbounded, it grows until std::bad_alloc or an OOM kill; it must stop
  // at the fixed memory budget with the typed error instead.
  const Circuit c = bench::su4_random_circuit(20, 4, 3, "hex27-20q");
  try {
    (void)map_astar(c, arch::ibm_hex27());
    ADD_FAILURE() << "expected the search budget to run out";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("search budget exhausted"), std::string::npos)
        << e.what();
  }
}

TEST(Heuristics, ExactBeatsOrTiesHeuristicsEverywhere) {
  // The paper's central comparison, in miniature.
  const auto cm = arch::ibm_qx4();
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    const Circuit c = bench::random_circuit(4, 4, 8, seed, "cmp");
    const long long minimum = certified_minimum(c, cm);
    EXPECT_LE(minimum, map_stochastic_swap(c, cm).cost_f);
    EXPECT_LE(minimum, map_astar(c, cm).cost_f);
  }
}

// Golden outputs. The heuristics' RNG draw order and candidate evaluation
// order are part of their output (docs/architecture.md), so a speed-up of
// their inner loops must leave every mapped circuit byte-identical. Each
// digest is FNV-1a over the written QASM, the SWAP/reversal counts and both
// layouts, as produced by the copy-per-candidate scoring loops.
std::string golden_digest(const exact::MappingResult& r) {
  std::string s = qasm::write(r.mapped);
  s += "swaps ";
  s += std::to_string(r.swaps_inserted);
  s += " reversed ";
  s += std::to_string(r.cnots_reversed);
  for (const auto* layout : {&r.initial_layout, &r.final_layout}) {
    s += layout == &r.initial_layout ? "\ninitial" : "\nfinal";
    for (const int p : *layout) {
      s += ' ';
      s += std::to_string(p);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(Rng::seed_from_string(s)));
  return hex;
}

struct GoldenCase {
  const char* name;
  std::function<exact::MappingResult()> map;
  const char* digest;
};

TEST(HeuristicGolden, OutputsAreByteIdenticalToRecordedDigests) {
  const auto tokyo = arch::ibm_tokyo();
  const auto hex27 = arch::ibm_hex27();
  const auto hex65 = arch::ibm_hex65();
  const auto su4 = [](int n, int layers, std::uint64_t seed) {
    return bench::su4_random_circuit(n, layers, seed, "golden");
  };
  const auto stochastic = [](int runs, exact::CostObjective objective) {
    StochasticSwapOptions o;
    o.runs = runs;
    o.costs.objective = objective;
    return o;
  };
  const auto gate_count = exact::CostObjective::GateCount;
  const auto error_weighted = exact::CostObjective::ErrorWeighted;
  const std::vector<GoldenCase> cases = {
      {"stochastic tokyo 20q",
       [&] { return map_stochastic_swap(su4(20, 4, 1), tokyo, stochastic(1, gate_count)); },
       "400b8d8b29d4cc94"},
      {"stochastic tokyo 20q runs=5 error-weighted",
       [&] { return map_stochastic_swap(su4(20, 3, 2), tokyo, stochastic(5, error_weighted)); },
       "f8be0de63202d3a0"},
      {"stochastic hex27 20q",
       [&] { return map_stochastic_swap(su4(20, 4, 3), hex27, stochastic(1, gate_count)); },
       "7742a968c3e6c729"},
      {"stochastic hex27 27q runs=5",
       [&] { return map_stochastic_swap(su4(27, 3, 4), hex27, stochastic(5, gate_count)); },
       "645b8df426e0d895"},
      {"stochastic hex27 20q runs=5 error-weighted",
       [&] { return map_stochastic_swap(su4(20, 3, 5), hex27, stochastic(5, error_weighted)); },
       "2310d2be6e572e3d"},
      {"stochastic hex65 48q",
       [&] { return map_stochastic_swap(su4(48, 2, 6), hex65, stochastic(1, gate_count)); },
       "a05735e03521c279"},
      {"sabre tokyo 20q", [&] { return heuristic::map_sabre(su4(20, 4, 7), tokyo); },
       "141c4364d8b04b17"},
      {"sabre hex27 27q", [&] { return heuristic::map_sabre(su4(27, 4, 8), hex27); },
       "fb6c85104e768205"},
      {"sabre hex65 65q", [&] { return heuristic::map_sabre(su4(65, 3, 9), hex65); },
       "c37fb31a07ed7557"},
      {"astar tokyo 16q", [&] { return map_astar(su4(16, 4, 10), tokyo); }, "0e7ffa5607790e50"},
  };
  for (const auto& c : cases) {
    const auto res = c.map();
    EXPECT_TRUE(res.verified) << c.name;
    EXPECT_EQ(golden_digest(res), c.digest) << c.name;
  }
}

// The exact mapper's outputs, pinned like the heuristics' above: the
// warm-start fallback (a 0 ms budget leaves the engine no time to find a
// model under the greedy route's bound), Table-1 rows that prove far inside
// their budget at 1 and 4 threads, and a CNOT-free circuit.
TEST(ExactGolden, OutputsAreByteIdenticalToRecordedDigests) {
  const auto qx4 = arch::ibm_qx4();
  const auto fallback = [&](int cnots, std::uint64_t seed) {
    exact::ExactOptions o;
    o.engine = reason::EngineKind::Cdcl;
    o.budget = std::chrono::milliseconds(0);
    const auto res = exact::map_exact(bench::random_cnot_circuit(5, cnots, seed, "golden"), qx4, o);
    EXPECT_EQ(res.status, reason::Status::Feasible);
    EXPECT_NE(res.verify_message.find("warm-start fallback"), std::string::npos)
        << res.verify_message;
    return res;
  };
  const auto table1 = [&](const char* name, int threads) {
    exact::ExactOptions o;
    o.engine = reason::EngineKind::Cdcl;
    o.use_subsets = true;
    o.num_threads = threads;
    o.budget = std::chrono::milliseconds(30000);
    const auto res = exact::map_exact(bench::table1_benchmark(name).build(), qx4, o);
    EXPECT_EQ(res.status, reason::Status::Optimal) << name;
    return res;
  };
  Circuit cnot_free(3, "golden-cnot-free");
  cnot_free.h(0);
  cnot_free.t(1);
  cnot_free.append(Gate::barrier());
  cnot_free.x(2);
  cnot_free.append(Gate::measure(1));
  const std::vector<GoldenCase> cases = {
      {"fallback 10 cnots", [&] { return fallback(10, 1); }, "4a07d27333d6597e"},
      {"fallback 20 cnots", [&] { return fallback(20, 2); }, "5fd9ca27269f34e9"},
      {"fallback 40 cnots", [&] { return fallback(40, 3); }, "eee034422153f488"},
      {"ex-1_166 1 thread", [&] { return table1("ex-1_166", 1); }, "71ba033d3c2c9d8c"},
      {"ex-1_166 4 threads", [&] { return table1("ex-1_166", 4); }, "71ba033d3c2c9d8c"},
      {"ham3_102 1 thread", [&] { return table1("ham3_102", 1); }, "cfb0e6a9eb3722aa"},
      {"ham3_102 4 threads", [&] { return table1("ham3_102", 4); }, "cfb0e6a9eb3722aa"},
      {"4gt11_84 1 thread", [&] { return table1("4gt11_84", 1); }, "d72ae4f6dc59d99b"},
      {"4gt11_84 4 threads", [&] { return table1("4gt11_84", 4); }, "d72ae4f6dc59d99b"},
      {"cnot-free qx4", [&] { return exact::map_exact(cnot_free, qx4); }, "21ad6493c4f46afc"},
      {"cnot-free tokyo", [&] { return exact::map_exact(cnot_free, arch::ibm_tokyo()); },
       "1f138f0fc06bf5ac"},
  };
  for (const auto& c : cases) {
    const auto res = c.map();
    EXPECT_TRUE(res.verified) << c.name << ": " << res.verify_message;
    EXPECT_EQ(golden_digest(res), c.digest) << c.name;
  }
}

}  // namespace
}  // namespace qxmap
