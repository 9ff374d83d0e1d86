/// Explores the Sec. 4 performance/quality trade-off on one benchmark:
/// runs the unrestricted exact method, the subset variant, and all three
/// permutation-point strategies, printing cost, Δmin and runtime for each.
///
///   $ ./strategy_explorer              # default benchmark: ham3_102
///   $ ./strategy_explorer alu-v0_27    # any Table-1 name
///   $ ./strategy_explorer rd32-v0_66 cdcl

#include <iostream>

#include "api/qxmap.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "common/strings.hpp"
#include "exact/reference_search.hpp"

int main(int argc, char** argv) {
  using namespace qxmap;

  const std::string name = argc > 1 ? argv[1] : "ham3_102";
  const auto engine = (argc > 2 && std::string(argv[2]) == "cdcl")
                          ? reason::EngineKind::Cdcl
                          : reason::EngineKind::Z3;
  const auto& benchmark = bench::table1_benchmark(name);
  const Circuit circuit = benchmark.build();
  const auto qx4 = arch::ibm_qx4();

  // Certified minimum from the DP reference.
  std::vector<Gate> cnots;
  for (const auto& g : circuit) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  std::vector<std::size_t> all_points;
  for (std::size_t k = 1; k < cnots.size(); ++k) all_points.push_back(k);
  const arch::SwapCostTable table(qx4);
  exact::CostModel costs;
  costs.swap_cost = 7;
  const auto reference =
      exact::minimal_cost_reference(cnots, circuit.num_qubits(), qx4, table, all_points, costs);

  std::cout << "benchmark " << name << ": n = " << benchmark.n
            << ", original cost = " << benchmark.original_cost()
            << ", certified minimal F = " << reference.cost_f << " (engine: "
            << reason::to_string(engine) << ")\n\n";
  std::cout << pad_right("variant", 22) << pad_left("|G'|+1", 8) << pad_left("F", 6)
            << pad_left("dmin", 6) << pad_left("time", 10) << pad_left("status", 12) << '\n';

  const auto run = [&](const std::string& label, exact::ExactOptions opt) {
    opt.engine = engine;
    opt.budget = std::chrono::milliseconds(20000);
    try {
      const auto res = exact::map_exact(circuit, qx4, opt);
      const bool found = res.status == reason::Status::Optimal ||
                         res.status == reason::Status::Feasible;
      std::string gap = "--";
      if (found) {
        gap = "+";
        gap += std::to_string(res.cost_f - reference.cost_f);
      }
      std::cout << pad_right(label, 22) << pad_left(std::to_string(res.permutation_points), 8)
                << pad_left(found ? std::to_string(res.cost_f) : "--", 6)
                << pad_left(gap, 6)
                << pad_left(format_fixed(res.seconds, 2) + "s", 10)
                << pad_left(res.status == reason::Status::Optimal ? "optimal"
                            : res.status == reason::Status::Feasible
                                ? "feasible"
                                : res.status == reason::Status::Unsat ? "unsat" : "unknown",
                            12)
                << '\n';
    } catch (const std::exception& e) {
      std::cout << pad_right(label, 22) << "error: " << e.what() << '\n';
    }
  };

  exact::ExactOptions base;
  run("minimal (Sec. 3)", base);
  exact::ExactOptions subsets = base;
  subsets.use_subsets = true;
  run("subsets (Sec. 4.1)", subsets);
  for (const auto strategy :
       {exact::PermutationStrategy::DisjointQubits, exact::PermutationStrategy::OddGates,
        exact::PermutationStrategy::QubitTriangle}) {
    exact::ExactOptions opt = base;
    opt.strategy = strategy;
    opt.use_subsets = true;
    run("strategy: " + exact::to_string(strategy), opt);
  }
  return 0;
}
