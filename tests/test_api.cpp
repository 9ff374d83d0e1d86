#include "api/qxmap.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/swap_synthesis.hpp"

namespace qxmap {
namespace {

TEST(Api, DefaultIsExactMapping) {
  const Circuit c = bench::paper_example_circuit();
  MapOptions opt;
  opt.exact.budget = std::chrono::milliseconds(30000);
  const auto res = map(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.status, reason::Status::Optimal);
  EXPECT_EQ(res.cost_f, 4);
}

TEST(Api, StochasticMethodDispatch) {
  const Circuit c = bench::paper_example_circuit();
  MapOptions opt;
  opt.method = Method::StochasticSwap;
  const auto res = map(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.engine_name, "qiskit-stochastic");
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
}

TEST(Api, AStarMethodDispatch) {
  const Circuit c = bench::paper_example_circuit();
  MapOptions opt;
  opt.method = Method::AStar;
  const auto res = map(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.engine_name, "astar");
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
}

TEST(Api, SabreMethodDispatch) {
  const Circuit c = bench::paper_example_circuit();
  MapOptions opt;
  opt.method = Method::Sabre;
  const auto res = map(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.engine_name, "sabre");
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
  EXPECT_TRUE(res.verified) << res.verify_message;
}

TEST(Api, SabreOptionsReachTheMapper) {
  const Circuit c = bench::random_circuit(5, 4, 12, 9, "api-sabre");
  MapOptions opt;
  opt.method = Method::Sabre;
  opt.sabre.seed = 17;
  opt.sabre.bidirectional_rounds = 0;
  opt.sabre.costs.objective = exact::CostObjective::ErrorWeighted;
  const auto via_api = map(c, arch::ibm_qx4(), opt);
  const auto direct = heuristic::map_sabre(c, arch::ibm_qx4(), opt.sabre);
  EXPECT_EQ(via_api.mapped, direct.mapped);
  EXPECT_EQ(via_api.initial_layout, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(via_api.objective, "error_weighted");
  EXPECT_EQ(via_api.objective_cost, direct.objective_cost);
}

TEST(Api, QasmInQasmOut) {
  // The facade exposes the QASM front-end directly.
  const Circuit c = qasm::parse(R"(
    OPENQASM 2.0;
    qreg q[3];
    h q[0];
    cx q[0], q[1];
    cx q[1], q[2];
    cx q[0], q[2];
  )");
  MapOptions opt;
  opt.exact.budget = std::chrono::milliseconds(30000);
  const auto res = map(c, arch::by_name("qx4"), opt);
  ASSERT_EQ(res.status, reason::Status::Optimal);
  const std::string text = qasm::write(res.mapped);
  const Circuit reparsed = qasm::parse(text);
  EXPECT_EQ(reparsed.size(), res.mapped.size());
}

TEST(Api, VersionIsSemver) {
  const std::string v = version();
  EXPECT_EQ(std::count(v.begin(), v.end(), '.'), 2);
}

}  // namespace
}  // namespace qxmap
