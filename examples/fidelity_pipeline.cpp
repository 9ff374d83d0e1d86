/// Full pipeline with the post-mapping extensions: map a workload with
/// every available method, peephole-optimize each result, and rank the
/// outcomes by estimated hardware fidelity — making the paper's "every
/// operation introduces an error" cost rationale (Sec. 2.2) quantitative.

#include <cmath>
#include <iostream>

#include "api/qxmap.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "common/strings.hpp"
#include "opt/peephole.hpp"
#include "sim/fidelity.hpp"

int main(int argc, char** argv) {
  using namespace qxmap;

  const std::string name = argc > 1 ? argv[1] : "4mod5-v0_20";
  const Circuit circuit = bench::table1_benchmark(name).build();
  const auto qx4 = arch::ibm_qx4();
  const sim::NoiseModel noise;  // QX4-ballpark error rates

  std::cout << "workload " << name << " (" << circuit.size() << " gates), architecture "
            << qx4.name() << "\n\n";
  std::cout << pad_right("method", 18) << pad_left("mapped", 8) << pad_left("optimized", 11)
            << pad_left("removed", 9) << pad_left("P(success)", 12)
            << pad_left("vs exact", 10) << '\n';

  double exact_log10 = 0.0;
  for (const auto method :
       {Method::Exact, Method::StochasticSwap, Method::AStar, Method::Sabre}) {
    MapOptions options;
    options.method = method;
    options.exact.use_subsets = true;
    options.exact.budget = std::chrono::milliseconds(20000);
    const auto result = map(circuit, qx4, options);
    if (result.status == reason::Status::Unsat || result.status == reason::Status::Unknown) {
      continue;
    }
    opt::PeepholeStats stats;
    const Circuit optimized = opt::optimize(result.mapped, qx4, &stats);
    const double log_p = sim::log10_success(optimized, noise);
    if (method == Method::Exact) exact_log10 = log_p;

    std::cout << pad_right(result.engine_name.empty() ? "exact" : result.engine_name, 18)
              << pad_left(std::to_string(result.mapped.size()), 8)
              << pad_left(std::to_string(optimized.size()), 11)
              << pad_left(std::to_string(stats.gates_removed()), 9)
              << pad_left(format_fixed(std::pow(10.0, log_p), 4), 12)
              << pad_left(format_fixed(std::pow(10.0, log_p - exact_log10), 3) + "x", 10)
              << '\n';
  }
  std::cout << "\n(P(success) multiplies per-gate survival probabilities; 'vs exact' is the\n"
            << " fidelity ratio against the exact mapper's optimized result.)\n";
  return 0;
}
