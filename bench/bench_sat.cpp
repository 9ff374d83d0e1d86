/// Micro-benchmarks for the home-grown CDCL solver substrate: propagation
/// throughput on implication chains and learning on pigeonhole instances.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "sat/solver.hpp"

namespace {

using namespace qxmap;
using sat::Lit;
using sat::neg;
using sat::pos;

void BM_ImplicationChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    std::vector<sat::Var> v;
    for (int i = 0; i < n; ++i) v.push_back(s.new_var());
    for (int i = 0; i + 1 < n; ++i) {
      s.add_clause(neg(v[static_cast<std::size_t>(i)]), pos(v[static_cast<std::size_t>(i + 1)]));
    }
    s.add_clause(pos(v[0]));
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_ImplicationChain)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_PigeonholeUnsat(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    std::vector<std::vector<sat::Var>> x(static_cast<std::size_t>(holes + 1));
    for (auto& row : x) {
      for (int h = 0; h < holes; ++h) row.push_back(s.new_var());
    }
    for (int p = 0; p <= holes; ++p) {
      std::vector<Lit> clause;
      for (int h = 0; h < holes; ++h) {
        clause.push_back(pos(x[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
      }
      s.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h) {
      for (int p1 = 0; p1 <= holes; ++p1) {
        for (int p2 = p1 + 1; p2 <= holes; ++p2) {
          s.add_clause(neg(x[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
                       neg(x[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]));
        }
      }
    }
    benchmark::DoNotOptimize(s.solve());
    // Engine-room health counters (docs/benchmarks.md): restart cadence,
    // ReduceDB deletions and the average learnt LBD of the last solve.
    const sat::SolverStats& st = s.stats();
    state.counters["conflicts"] = static_cast<double>(st.conflicts);
    state.counters["restarts"] = static_cast<double>(st.restarts);
    state.counters["learnt_del"] = static_cast<double>(st.learnt_deleted);
    state.counters["avg_lbd"] =
        st.learned > 0 ? static_cast<double>(st.lbd_sum) / static_cast<double>(st.learned) : 0.0;
  }
}
BENCHMARK(BM_PigeonholeUnsat)->Arg(5)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_RandomThreeSat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int clauses = static_cast<int>(4.0 * n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    sat::Solver s;
    for (int i = 0; i < n; ++i) s.new_var();
    for (int c = 0; c < clauses; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k) {
        cl.push_back(Lit(static_cast<sat::Var>(rng.next_below(static_cast<std::uint64_t>(n))),
                         rng.next_bool(0.5)));
      }
      s.add_clause(std::move(cl));
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_RandomThreeSat)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace
