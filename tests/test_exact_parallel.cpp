/// Determinism/concurrency harness for the parallel exact mapper: thread-
/// count invariance of the subset shard-and-reduce, the shared-bound early
/// termination, the zero-cost short-circuit, oversubscription (more threads
/// than subsets), the hardest-first pop order, engine-cooperative mid-solve
/// bound tightening (docs/concurrency.md), and the warm start that seeds
/// the shared bound.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "arch/architectures.hpp"
#include "arch/subsets.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/swap_synthesis.hpp"
#include "obs/trace.hpp"
#include "reason/cdcl_engine.hpp"

namespace qxmap {
namespace {

using exact::ExactOptions;
using exact::map_exact;
using exact::MappingResult;
using reason::EngineKind;
using reason::Status;

ExactOptions subset_options(EngineKind kind, int num_threads) {
  ExactOptions opt;
  opt.engine = kind;
  opt.use_subsets = true;
  opt.num_threads = num_threads;
  opt.budget = std::chrono::milliseconds(30000);
  return opt;
}

/// Everything that must be bit-identical across thread counts.
void expect_identical(const MappingResult& a, const MappingResult& b, const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.cost_f, b.cost_f) << what;
  EXPECT_EQ(a.swaps_inserted, b.swaps_inserted) << what;
  EXPECT_EQ(a.cnots_reversed, b.cnots_reversed) << what;
  EXPECT_EQ(a.mapped.counts().single_qubit, b.mapped.counts().single_qubit) << what;
  EXPECT_EQ(a.initial_layout, b.initial_layout) << what;
  EXPECT_EQ(a.final_layout, b.final_layout) << what;
  EXPECT_EQ(a.instances_solved, b.instances_solved) << what;
  EXPECT_EQ(a.mapped, b.mapped) << what;
  EXPECT_EQ(a.routed_skeleton, b.routed_skeleton) << what;
}

class ExactParallelTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ExactParallelTest, ThreadCountInvarianceOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Circuit c = bench::random_circuit(3, 2, 6, seed, "par3");
    const auto serial = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 1));
    ASSERT_EQ(serial.status, Status::Optimal) << "seed " << seed;
    for (const int threads : {2, 8}) {
      const auto parallel = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), threads));
      expect_identical(serial, parallel,
                       "seed " + std::to_string(seed) + ", threads " + std::to_string(threads));
    }
  }
}

TEST_P(ExactParallelTest, HardwareConcurrencyDefaultMatchesSerial) {
  const Circuit c = bench::random_circuit(4, 3, 5, 7, "par4");
  const auto serial = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 1));
  const auto automatic = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 0));
  ASSERT_EQ(serial.status, Status::Optimal);
  expect_identical(serial, automatic, "num_threads = 0");
}

TEST_P(ExactParallelTest, OversubscriptionMoreThreadsThanSubsets) {
  // QX4 has exactly 4 connected 4-subsets; ask for 16 threads.
  const auto subsets = arch::connected_subsets(arch::ibm_qx4(), 4);
  ASSERT_EQ(subsets.size(), 4u);
  const Circuit c = bench::random_circuit(4, 2, 6, 11, "over");
  const auto serial = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 1));
  const auto oversubscribed = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), 16));
  ASSERT_EQ(serial.status, Status::Optimal);
  expect_identical(serial, oversubscribed, "16 threads, 4 subsets");
}

TEST_P(ExactParallelTest, ZeroCostSolutionShortCircuitsLaterSubsets) {
  // A single CNOT always embeds on the first connected 2-subset with cost 0
  // (the initial mapping is free), so of QX4's six 2-subsets only the first
  // may be solved — later subsets can at best tie and lose the index
  // tie-break.
  Circuit c(2, "zero");
  c.cnot(0, 1);
  ASSERT_EQ(arch::connected_subsets(arch::ibm_qx4(), 2).size(), 6u);
  for (const int threads : {1, 2, 8}) {
    const auto res = map_exact(c, arch::ibm_qx4(), subset_options(GetParam(), threads));
    ASSERT_EQ(res.status, Status::Optimal) << threads;
    EXPECT_EQ(res.cost_f, 0) << threads;
    EXPECT_EQ(res.instances_solved, 1) << threads;
    EXPECT_TRUE(res.verified) << res.verify_message;
  }
}

TEST_P(ExactParallelTest, NegativeThreadCountIsRejected) {
  Circuit c(2, "bad");
  c.cnot(0, 1);
  auto opt = subset_options(GetParam(), -1);
  EXPECT_THROW((void)map_exact(c, arch::ibm_qx4(), opt), std::invalid_argument);
}

TEST_P(ExactParallelTest, ParallelismAppliesOnlyWithMultipleInstances) {
  // Full-architecture mode has a single instance; any thread count must
  // behave exactly like the serial full solve.
  const Circuit c = bench::random_circuit(4, 2, 4, 3, "full");
  auto serial_opt = subset_options(GetParam(), 1);
  serial_opt.use_subsets = false;
  auto parallel_opt = subset_options(GetParam(), 8);
  parallel_opt.use_subsets = false;
  const auto serial = map_exact(c, arch::ibm_qx4(), serial_opt);
  const auto parallel = map_exact(c, arch::ibm_qx4(), parallel_opt);
  ASSERT_EQ(serial.status, Status::Optimal);
  EXPECT_EQ(serial.instances_solved, 1);
  expect_identical(serial, parallel, "single-instance mode");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ExactParallelTest,
                         ::testing::Values(EngineKind::Cdcl, EngineKind::Z3));

// --- Shared-bound correctness at the engine level --------------------------
//
// The shards feed each other Eq. (5) upper bounds via
// ReasoningEngine::set_upper_bound; these tests pin down the contract the
// mapper relies on: a bound at or above the optimum never changes the
// reported optimum, and a bound below it comes back as (bounded) Unsat.

namespace bound {

/// Builds "pay 3 for a, 5 for b, at least one of a/b" — optimum 3 (a alone).
struct SmallObjective {
  reason::CdclEngine engine;
  int a;
  int b;
  SmallObjective() {
    a = engine.new_bool();
    b = engine.new_bool();
    engine.add_clause({a + 1, b + 1});
    engine.add_cost(a, 3);
    engine.add_cost(b, 5);
  }
};

/// Pigeonhole PHP(pigeons, pigeons - 1) with a unit cost per placement:
/// unsatisfiable, and hard enough that the refutation runs through
/// thousands of conflicts, restarts and ReduceDB passes.
void add_pigeonhole(reason::CdclEngine& engine, int pigeons) {
  const int holes = pigeons - 1;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(pigeons));
  for (auto& row : x) {
    for (int h = 0; h < holes; ++h) {
      const int v = engine.new_bool();
      engine.add_cost(v, 1);
      row.push_back(v + 1);
    }
  }
  for (const auto& row : x) engine.add_clause(row);
  for (std::size_t h = 0; h < static_cast<std::size_t>(holes); ++h) {
    for (std::size_t p1 = 0; p1 < x.size(); ++p1) {
      for (std::size_t p2 = p1 + 1; p2 < x.size(); ++p2) engine.add_clause({-x[p1][h], -x[p2][h]});
    }
  }
}

}  // namespace bound

TEST(SharedBoundContract, BoundAboveOptimumKeepsOptimum) {
  bound::SmallObjective p;
  p.engine.set_upper_bound(7);
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
}

TEST(SharedBoundContract, BoundEqualToOptimumKeepsOptimum) {
  // The mapper publishes bounds inclusively: a tying instance must still
  // find its model so the deterministic index tie-break sees it.
  bound::SmallObjective p;
  p.engine.set_upper_bound(3);
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
}

TEST(SharedBoundContract, BoundBelowOptimumTerminatesAsBoundedUnsat) {
  bound::SmallObjective p;
  p.engine.set_upper_bound(2);
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Unsat);
}

TEST(SharedBoundContract, NegativeBoundIsRejected) {
  bound::SmallObjective p;
  EXPECT_THROW(p.engine.set_upper_bound(-1), std::invalid_argument);
}

// --- Cooperative mid-solve tightening at the engine level -------------------
//
// set_bound_source installs a live view of the shared bound; the engine must
// poll it at least once per minimize() (loop-start checkpoint), count polls
// and tightenings in stats(), and report outcomes exactly as if the
// tightest polled value had been passed to set_upper_bound up front.

TEST(CooperativeTightening, SourceAboveOptimumKeepsOptimum) {
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 7LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
  EXPECT_GE(p.engine.stats().bound_polls, 1);
  EXPECT_GE(p.engine.stats().bound_tightenings, 1);  // 7 < "no bound known"
}

TEST(CooperativeTightening, SourceEqualToOptimumKeepsOptimum) {
  // Published bounds are inclusive: a tying instance must still report its
  // model so the deterministic index tie-break sees it.
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 3LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
}

TEST(CooperativeTightening, SourceBelowOptimumTerminatesAsBoundedUnsat) {
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 2LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Unsat);
  EXPECT_GE(p.engine.stats().bound_tightenings, 1);
}

TEST(CooperativeTightening, NoBoundSentinelIsNeutral) {
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return reason::ReasoningEngine::kNoBound; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
  EXPECT_GE(p.engine.stats().bound_polls, 1);
  EXPECT_EQ(p.engine.stats().bound_tightenings, 0);
}

TEST(CooperativeTightening, MonotoneSourceSimulatingSiblingProgress) {
  // The source value drops as the engine works — exactly what a sibling
  // shard descending on its own instance produces. The engine must converge
  // on bounded-Unsat once the source falls below its optimum, whatever the
  // interleaving: outcomes depend only on the tightest value polled.
  bound::SmallObjective p;
  long long calls = 0;
  p.engine.set_bound_source([&calls] {
    ++calls;
    return calls == 1 ? 7LL : 2LL;  // first poll loose, then below optimum 3
  });
  const auto out = p.engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Unsat);
  EXPECT_GE(p.engine.stats().bound_tightenings, 2);  // kNoBound -> 7 -> 2
}

TEST(CooperativeTightening, InSolvePollsFollowTheConflictInterval) {
  // One poll at the loop start, then one every kPollConflictInterval
  // conflicts inside the solve. The refuting conflict at level 0 ends the
  // solve without reaching the interrupt hook, so it is not counted.
  reason::CdclEngine engine;
  bound::add_pigeonhole(engine, 8);
  engine.set_bound_source([] { return reason::ReasoningEngine::kNoBound; });
  const auto out = engine.minimize(std::chrono::milliseconds(30000));
  ASSERT_EQ(out.status, Status::Unsat);
  const auto conflicts = static_cast<long long>(engine.solver_stats().conflicts);
  ASSERT_GT(conflicts, reason::CdclEngine::kPollConflictInterval);
  EXPECT_EQ(engine.stats().bound_polls,
            1 + (conflicts - 1) / reason::CdclEngine::kPollConflictInterval);
  EXPECT_EQ(engine.stats().bound_tightenings, 0);
}

// --- Descending loop: the deadline contract --------------------------------
//
// The deadline is checked at conflict boundaries only. When it expires, the
// engine reports its best model as Feasible unless that model costs more
// than the tightest bound it has polled: a run with that bound set up front
// would have found nothing yet, so the outcome is Unknown, never Feasible.

namespace deadline {

/// "Pay 10 for c; c or e; e forces a contradiction on x/y". The first solve
/// decides e false (variable 0, false phase first), propagates c and lands
/// the cost-10 model without a conflict. Any bound below 10 forces e at
/// level 0, and the x/y clauses then need a decision and a conflict to
/// refute, so a zero budget expires inside that solve holding the model.
struct ModelThenConflict {
  reason::CdclEngine engine;
  ModelThenConflict() {
    const int e = engine.new_bool() + 1;
    const int c = engine.new_bool() + 1;
    const int x = engine.new_bool() + 1;
    const int y = engine.new_bool() + 1;
    engine.add_clause({e, c});
    engine.add_clause({-e, x, y});
    engine.add_clause({-e, x, -y});
    engine.add_clause({-e, -x, y});
    engine.add_clause({-e, -x, -y});
    engine.add_cost(c - 1, 10);
  }
};

}  // namespace deadline

TEST(DescendingLoopDeadline, ModelAboveExternalBoundIsUnknown) {
  // The first poll sees no bound; once the cost-10 model exists the source
  // drops to 4, as a sibling shard finishing cheaper would. The deadline
  // then expires with only the cost-10 model in hand: Unknown.
  deadline::ModelThenConflict p;
  int polls = 0;
  p.engine.set_bound_source([&polls] {
    return ++polls == 1 ? reason::ReasoningEngine::kNoBound : 4LL;
  });
  const auto out = p.engine.minimize(std::chrono::milliseconds(0));
  EXPECT_EQ(out.status, Status::Unknown);
  EXPECT_GE(polls, 2);
  EXPECT_EQ(p.engine.stats().bound_tightenings, 1);
  EXPECT_GE(p.engine.solver_stats().conflicts, 1u);
}

TEST(DescendingLoopDeadline, ModelWithinExternalBoundIsFeasible) {
  // Companion: the same expiry under a bound the model meets keeps it. The
  // conflict's learnt clause reaches EngineStats on this exit path too.
  deadline::ModelThenConflict p;
  p.engine.set_bound_source([] { return 10LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(0));
  EXPECT_EQ(out.status, Status::Feasible);
  EXPECT_EQ(out.cost, 10);
  EXPECT_GE(p.engine.solver_stats().conflicts, 1u);
  EXPECT_GT(p.engine.stats().avg_lbd, 0.0);
}

TEST(DescendingLoopDeadline, ZeroBudgetConvergesByPropagationAlone) {
  // Contrast case: these solves never meet a conflict, so a zero budget is
  // never consulted and the polled bound still drives the descent to a
  // proven optimum.
  bound::SmallObjective p;
  p.engine.set_bound_source([] { return 4LL; });
  const auto out = p.engine.minimize(std::chrono::milliseconds(0));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 3);
}

TEST(DescendingLoopDeadline, NoModelBeforeDeadlineIsUnknown) {
  // The first solve meets a conflict before any model exists; the zero
  // budget expires there. Nothing is proven either way, and there is no
  // model to read.
  reason::CdclEngine engine;
  bound::add_pigeonhole(engine, 8);
  const auto out = engine.minimize(std::chrono::milliseconds(0));
  EXPECT_EQ(out.status, Status::Unknown);
  EXPECT_EQ(engine.solver_stats().conflicts, 1u);
  EXPECT_THROW((void)engine.value(0), std::logic_error);
}

// --- Descending loop: solver counters in EngineStats -------------------------

TEST(DescendingLoopStats, SolverCountersReachEngineStats) {
  // A refutation long enough to restart and reduce the learnt database;
  // minimize() mirrors the solver's counters into EngineStats.
  reason::CdclEngine engine;
  bound::add_pigeonhole(engine, 8);
  ASSERT_EQ(engine.minimize(std::chrono::milliseconds(30000)).status, Status::Unsat);
  const auto& ss = engine.solver_stats();
  const auto& es = engine.stats();
  EXPECT_GT(ss.restarts, 0u);
  EXPECT_GT(ss.learnt_deleted, 0u);
  EXPECT_EQ(es.restarts, static_cast<long long>(ss.restarts));
  EXPECT_EQ(es.learnts_deleted, static_cast<long long>(ss.learnt_deleted));
  EXPECT_EQ(es.learnts_kept, static_cast<long long>(ss.learnt_kept));
  ASSERT_GT(ss.learned, 0u);
  EXPECT_DOUBLE_EQ(es.avg_lbd,
                   static_cast<double>(ss.lbd_sum) / static_cast<double>(ss.learned));
  EXPECT_EQ(es.bound_polls, 0);  // no bound source installed
}

// --- Prefix snapshot / rollback on the engine --------------------------------

TEST(PrefixReuse, ResetRestoresTheMarkedFormula) {
  reason::CdclEngine engine;
  const int a = engine.new_bool();
  engine.add_clause({a + 1});
  ASSERT_TRUE(engine.mark_prefix());
  // Suffix 1 contradicts the prefix; the engine is now proven unsat.
  engine.add_clause({-(a + 1)});
  EXPECT_EQ(engine.minimize(std::chrono::milliseconds(5000)).status, Status::Unsat);
  // Roll back and build a different suffix on the same prefix: suffix
  // variables re-issue from the prefix boundary and the solve recovers.
  ASSERT_TRUE(engine.reset_to_prefix());
  const int b = engine.new_bool();
  EXPECT_EQ(b, 1);
  engine.add_clause({b + 1});
  engine.add_cost(b, 2);
  const auto out = engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 2);
}

TEST(PrefixReuse, ResetDiscardsSuffixCostsAndBounds) {
  // The first suffix prices a/b and bounds the objective below its optimum;
  // after the rollback neither the cost terms, the totalizer built over
  // them nor the bound may constrain the second suffix.
  reason::CdclEngine engine;
  const int a = engine.new_bool();
  const int b = engine.new_bool();
  engine.add_clause({a + 1, b + 1});
  ASSERT_TRUE(engine.mark_prefix());
  engine.add_cost(a, 3);
  engine.add_cost(b, 5);
  engine.set_upper_bound(2);
  EXPECT_EQ(engine.minimize(std::chrono::milliseconds(5000)).status, Status::Unsat);
  ASSERT_TRUE(engine.reset_to_prefix());
  engine.add_cost(a, 6);
  engine.add_cost(b, 4);
  const auto out = engine.minimize(std::chrono::milliseconds(5000));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.cost, 4);
  EXPECT_FALSE(engine.value(a));
  EXPECT_TRUE(engine.value(b));
}

TEST(PrefixReuse, ResetWithoutMarkIsRefused) {
  reason::CdclEngine engine;
  EXPECT_FALSE(engine.reset_to_prefix());
}

// --- Thread-count invariance on Table-1 instances ---------------------------

TEST(Table1ThreadInvariance, SmallRowsAreBitIdenticalAcrossThreadCounts) {
  // Shards reuse one engine across their instances (prefix reuse), which
  // must not perturb determinism: the full result stays bit-identical at
  // every thread count.
  for (const char* name : {"ex-1_166", "ham3_102"}) {
    const Circuit c = bench::table1_benchmark(name).build();
    const auto serial_opt = subset_options(EngineKind::Cdcl, 1);
    const auto serial = map_exact(c, arch::ibm_qx4(), serial_opt);
    ASSERT_EQ(serial.status, Status::Optimal) << name;
    for (const int threads : {2, 8}) {
      auto opt = serial_opt;
      opt.num_threads = threads;
      const auto parallel = map_exact(c, arch::ibm_qx4(), opt);
      expect_identical(serial, parallel, std::string(name) + ", threads " + std::to_string(threads));
    }
  }
}

// --- Warm-start fallback -----------------------------------------------------

TEST(WarmStartFallback, IsAVerifiedFeasibleGreedyRoute) {
  // A 0 ms budget leaves the engine no time to find a model under the
  // greedy route's bound, so the single QX4 instance returns the warm start.
  const auto cm = arch::ibm_qx4();
  auto& recorder = obs::TraceRecorder::instance();
  const bool was_enabled = obs::TraceRecorder::enabled();
  ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.budget = std::chrono::milliseconds(0);
  for (const int cnots : {10, 20, 40}) {
    const Circuit c = bench::random_cnot_circuit(5, cnots, 100 + cnots, "fallback");
    recorder.set_enabled(true);
    recorder.clear();
    const auto res = map_exact(c, cm, opt);
    const auto events = recorder.snapshot();
    recorder.set_enabled(was_enabled);
    // The greedy route's cost, as the warm-start span recorded it.
    std::string warm_cost;
    for (const auto& e : events) {
      if (e.name != "exact.warm_start") continue;
      for (const auto& [key, value] : e.attrs) {
        if (key == "cost") warm_cost = value;
      }
    }
    ASSERT_FALSE(warm_cost.empty()) << cnots << " cnots";
    EXPECT_EQ(res.status, Status::Feasible) << cnots << " cnots";
    EXPECT_NE(res.verify_message.find("warm-start fallback"), std::string::npos)
        << res.verify_message;
    EXPECT_EQ(std::to_string(res.objective_cost), warm_cost);
    EXPECT_TRUE(exact::satisfies_coupling(res.mapped, cm));
    EXPECT_TRUE(res.verified) << res.verify_message;
    EXPECT_NE(res.verify_message.find("equivalent on the embedded subspace"), std::string::npos)
        << "statevector check did not run: " << res.verify_message;
  }
}

// --- Mid-solve tightening and the work-stealing order in the mapper ---------

namespace steal {

/// 6 physical qubits: a 2-qubit tail hanging off a 4-cycle (all couplings
/// bidirected). The five sparse connected 4-subsets (3 edges each) need
/// SWAPs for the cycle workload below and solve slowly; the 4-cycle subset
/// {2,3,4,5} hosts it at cost 0 and solves fast. Under the hardest-first
/// steal order the sparse subsets are popped first, so the cycle subset's
/// cost-0 bound lands while they are mid-solve — the in-flight abort this
/// suite pins down.
arch::CouplingMap tail_cycle6() {
  std::vector<std::pair<int, int>> edges;
  const auto bidirected = [&edges](int a, int b) {
    edges.emplace_back(a, b);
    edges.emplace_back(b, a);
  };
  bidirected(0, 1);
  bidirected(1, 2);
  bidirected(2, 3);
  bidirected(3, 4);
  bidirected(4, 5);
  bidirected(5, 2);
  return arch::CouplingMap(6, edges, "tail-cycle6");
}

/// `reps` repetitions of the 4-cycle CNOT pattern (0,1)(1,2)(2,3)(3,0).
Circuit cycle_workload(int reps) {
  Circuit c(4, "cycle-workload");
  for (int r = 0; r < reps; ++r) {
    c.cnot(0, 1);
    c.cnot(1, 2);
    c.cnot(2, 3);
    c.cnot(3, 0);
  }
  return c;
}

}  // namespace steal

TEST(MidSolveTightening, CheapSubsetAbortsInFlightExpensiveShards) {
  const auto cm = steal::tail_cycle6();
  ASSERT_EQ(arch::connected_subsets(cm, 4).size(), 6u);
  const Circuit c = steal::cycle_workload(3);
  ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.use_subsets = true;
  opt.num_threads = 6;  // every instance gets a worker up front
  opt.budget = std::chrono::milliseconds(120000);
  const auto res = map_exact(c, cm, opt);
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.cost_f, 0);
  EXPECT_EQ(res.instances_solved, 6);
  EXPECT_TRUE(res.verified) << res.verify_message;
  // Engines poll the shared bound at least once per solve, so polls are
  // guaranteed; the tightenings prove the cycle subset's cost-0 bound landed
  // *inside* sparse shards that were already solving (the serial schedule
  // only ever hands bounds over at solve start).
  EXPECT_GE(res.bound_polls, 6);
  EXPECT_GE(res.bound_tightenings, 1);
}

TEST(MidSolveTightening, SerialRunNeverTightensMidSolve) {
  // At one thread every bound is published before the next instance starts,
  // so loop-start polls see it but nothing arrives mid-solve; the result
  // must still be bit-identical to the parallel run.
  const auto cm = steal::tail_cycle6();
  const Circuit c = steal::cycle_workload(2);
  ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.use_subsets = true;
  opt.num_threads = 1;
  opt.budget = std::chrono::milliseconds(120000);
  const auto serial = map_exact(c, cm, opt);
  ASSERT_EQ(serial.status, Status::Optimal);
  EXPECT_EQ(serial.bound_tightenings, 0);
  EXPECT_GE(serial.bound_polls, 6);
  opt.num_threads = 6;
  const auto parallel = map_exact(c, cm, opt);
  expect_identical(serial, parallel, "tail-cycle6, 1 vs 6 threads");
}

TEST(MidSolveTightening, SingleInstanceInstallsNoBoundSource) {
  // A lone full-architecture instance has no sibling that could publish a
  // bound mid-solve, so it skips the source and its checkpoint polls.
  const Circuit c = bench::random_circuit(5, 2, 6, 3, "single-instance");
  ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.num_threads = 4;
  opt.budget = std::chrono::milliseconds(60000);
  const auto res = map_exact(c, arch::ibm_qx4(), opt);
  ASSERT_EQ(res.status, Status::Optimal);
  EXPECT_EQ(res.instances_solved, 1);
  EXPECT_EQ(res.bound_polls, 0);
}

TEST(MidSolveTightening, ThreadCountSweepIsBitIdentical) {
  // Mid-solve bounds change wall time, never results: 1, 2 and 6 threads
  // (serial, partial and full overlap of the shards) must be bit-identical.
  const auto cm = steal::tail_cycle6();
  const Circuit c = steal::cycle_workload(2);
  ExactOptions opt;
  opt.engine = EngineKind::Cdcl;
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(120000);
  opt.num_threads = 1;
  const auto reference = map_exact(c, cm, opt);
  ASSERT_EQ(reference.status, Status::Optimal);
  for (const int threads : {2, 6}) {
    opt.num_threads = threads;
    const auto res = map_exact(c, cm, opt);
    expect_identical(reference, res, "threads=" + std::to_string(threads));
  }
}

// --- Work-stealing determinism sweep over the built-in architectures --------

TEST(WorkStealingSweep, ThreadCountInvarianceOnAllBuiltInArchitectures) {
  // qx2/qx4 exercise dense 5-qubit subset lists; qx5/tokyo exercise wide
  // subset lists (dozens of 3-subsets) where the steal order differs most
  // from index order.
  const std::vector<arch::CouplingMap> archs = {arch::ibm_qx2(), arch::ibm_qx4(), arch::ibm_qx5(),
                                                arch::ibm_tokyo()};
  for (const auto& cm : archs) {
    const Circuit c = bench::random_circuit(3, 2, 5, 17, "sweep-" + cm.name());
    ExactOptions opt;
    opt.engine = EngineKind::Cdcl;
    opt.use_subsets = true;
    opt.budget = std::chrono::milliseconds(120000);
    opt.num_threads = 1;
    const auto serial = map_exact(c, cm, opt);
    ASSERT_EQ(serial.status, Status::Optimal) << cm.name();
    EXPECT_TRUE(serial.verified) << cm.name() << ": " << serial.verify_message;
    for (const int threads : {2, 8}) {
      auto popt = opt;
      popt.num_threads = threads;
      const auto parallel = map_exact(c, cm, popt);
      expect_identical(serial, parallel, cm.name() + ", threads " + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace qxmap
