/// Ablation bench for the reasoning-engine choice (Sec. 3.1): the paper's
/// Z3 backend vs. this library's own CDCL + descending-bound optimiser on
/// identical symbolic instances.

#include <benchmark/benchmark.h>

#include "arch/architectures.hpp"
#include "bench_circuits/generators.hpp"
#include "common/rng.hpp"
#include "exact/exact_mapper.hpp"
#include "reason/cdcl_engine.hpp"

namespace {

using namespace qxmap;

void BM_Engine(benchmark::State& state) {
  const auto kind =
      state.range(0) == 0 ? reason::EngineKind::Z3 : reason::EngineKind::Cdcl;
  const int num_cnots = static_cast<int>(state.range(1));
  const Circuit circuit = bench::random_circuit(4, 0, num_cnots, 42, "engine-bench");
  exact::ExactOptions opt;
  opt.engine = kind;
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(30000);
  opt.verify = false;
  long long cost = -1;
  for (auto _ : state) {
    const auto res = exact::map_exact(circuit, arch::ibm_qx4(), opt);
    cost = res.cost_f;
    benchmark::DoNotOptimize(res);
  }
  state.counters["F"] = static_cast<double>(cost);
  state.SetLabel(std::string(kind == reason::EngineKind::Z3 ? "z3" : "cdcl") + "/cx" +
                 std::to_string(num_cnots));
}
BENCHMARK(BM_Engine)
    ->ArgsProduct({{0, 1}, {4, 6, 8}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_CdclDescending(benchmark::State& state) {
  // Sec. 3.3 on raw weighted instances: the descending-bound loop, the CDCL
  // engine's way to the minimum.
  const int num_vars = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    reason::CdclEngine engine;
    for (int v = 0; v < num_vars; ++v) engine.new_bool();
    for (int c = 0; c < 2 * num_vars; ++c) {
      std::vector<int> clause;
      for (int k = 0; k < 3; ++k) {
        const int var = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_vars))) + 1;
        clause.push_back(rng.next_bool(0.5) ? var : -var);
      }
      engine.add_clause(clause);
    }
    for (int v = 0; v < num_vars; ++v) {
      if (rng.next_bool(0.5)) engine.add_cost(v, 4 + (v % 4) * 7);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.minimize(std::chrono::milliseconds(30000)));
    state.PauseTiming();
    // EngineStats counters (docs/benchmarks.md) from the last minimize.
    const reason::EngineStats& es = engine.stats();
    state.counters["restarts"] = static_cast<double>(es.restarts);
    state.counters["learnt_del"] = static_cast<double>(es.learnts_deleted);
    state.counters["avg_lbd"] = es.avg_lbd;
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CdclDescending)->Arg(30)->Arg(60)->Unit(benchmark::kMillisecond);

}  // namespace
