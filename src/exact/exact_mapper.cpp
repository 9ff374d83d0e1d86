#include "exact/exact_mapper.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "arch/distances.hpp"
#include "arch/subsets.hpp"
#include "arch/swap_cost_cache.hpp"
#include "arch/swap_costs.hpp"
#include "exact/encoder.hpp"
#include "exact/shard_executor.hpp"
#include "exact/strategies.hpp"
#include "exact/swap_synthesis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::exact {

namespace {

using Clock = std::chrono::steady_clock;

/// Best instance found across subsets.
struct InstanceSolution {
  Encoding::Solution solution;
  std::vector<int> subset;  // local physical index -> global physical qubit
  std::shared_ptr<const arch::SwapCostTable> table;
  reason::Status status;
};

/// Walks a decoded model into a route: the model's initial layout, then
/// before each scheduled CNOT the SWAP sequence of its point permutation.
RouteBuilder reconstruct(const Circuit& original, const arch::CouplingMap& cm,
                         const InstanceSolution& best, const std::vector<std::size_t>& points) {
  const int n = original.num_qubits();
  const auto& subset = best.subset;
  const auto& layouts = best.solution.layouts;

  // Layouts are logical j -> global physical qubit.
  std::vector<int> initial(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    initial[static_cast<std::size_t>(j)] =
        subset[static_cast<std::size_t>(layouts[0][static_cast<std::size_t>(j)])];
  }
  RouteBuilder route(original, cm, std::move(initial));

  std::size_t k = 0;          // CNOT index
  std::size_t point_idx = 0;  // index into points / point_perms
  for (const auto& g : original) {
    if (g.is_cnot()) {
      // First apply the permutation scheduled before this gate, if any.
      if (point_idx < points.size() && points[point_idx] == k) {
        const Permutation& pi = best.solution.point_perms[point_idx];
        for (const auto& [a, b] : best.table->swap_sequence(pi)) {
          route.swap(subset[static_cast<std::size_t>(a)], subset[static_cast<std::size_t>(b)]);
        }
        ++point_idx;
      }
      // Cross-check the walked layout against the model's x variables.
      for (int j = 0; j < n; ++j) {
        const int expected =
            subset[static_cast<std::size_t>(layouts[k][static_cast<std::size_t>(j)])];
        if (route.layout()[static_cast<std::size_t>(j)] != expected) {
          throw std::logic_error("map_exact: reconstructed layout diverges from model");
        }
      }
      ++k;
    }
    route.gate(g);
  }
  return route;
}

/// Deterministic greedy warm start: routes the circuit with shortest-path
/// SWAP chains from the identity layout (ties toward the lowest-numbered
/// neighbour). Its added cost is a feasible value of Eq. (5)'s objective —
/// the paper's Sec. 3.3 observation that F can "simply [be] set to a fixed
/// value" — so it seeds the shared bound before the first solve: the GTE is
/// clamped at the warm-start cost from the outset instead of at whatever
/// first model the unbounded search wanders into. Only sound when the
/// symbolic instance can express any swap placement (PermutationStrategy::
/// All over the full architecture); restricted strategies and proper
/// subsets may not contain the greedy schedule.
RouteBuilder greedy_route(const Circuit& circuit, const arch::CouplingMap& cm) {
  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  const arch::DistanceMatrix& dist = *dist_handle;
  RouteBuilder route(circuit, cm);
  const auto placed = [&route](int q) { return route.layout()[static_cast<std::size_t>(q)]; };
  for (const auto& g : circuit) {
    // Walk a CNOT's control one hop at a time until it meets the target.
    while (g.is_cnot() && !cm.coupled(placed(g.control), placed(g.target))) {
      const int pc = placed(g.control);
      const int pt = placed(g.target);
      int best_nb = -1;
      int best_d = dist.hops(pc, pt);
      for (const int nb : cm.neighbours(pc)) {
        if (dist.hops(nb, pt) < best_d) {
          best_d = dist.hops(nb, pt);
          best_nb = nb;
        }
      }
      if (best_nb < 0) throw std::logic_error("map_exact: greedy warm start cannot progress");
      route.swap(pc, best_nb);
    }
    route.gate(g);
  }
  return route;
}

/// Per-subset outcome collected by the executor tasks. Each task writes its
/// own slot, so no slot-level synchronisation is needed.
struct InstanceOutcome {
  reason::Status status = reason::Status::Unknown;
  std::optional<Encoding::Solution> solution;
  std::shared_ptr<const arch::SwapCostTable> table;
};

std::size_t resolve_num_threads(int requested, std::size_t num_instances) {
  if (requested < 0) {
    throw std::invalid_argument("map_exact: num_threads must be >= 0");
  }
  std::size_t threads = requested == 0
                            ? std::max(1u, std::thread::hardware_concurrency())
                            : static_cast<std::size_t>(requested);
  return std::min(threads, num_instances);
}

/// Per-phase wall time for MappingResult::trace_summary, summed by the
/// phase spans as they close (obs::Span's accumulator), so it fills only
/// while tracing is enabled; a phase whose span opened while tracing was
/// off reads 0. Shard-side phases sum across threads, so encode/solve can
/// exceed the request's wall time under parallelism.
struct PhaseTimes {
  std::atomic<std::uint64_t> subsets_ns{0};
  std::atomic<std::uint64_t> warm_start_ns{0};
  std::atomic<std::uint64_t> prefix_ns{0};
  std::atomic<std::uint64_t> encode_ns{0};
  std::atomic<std::uint64_t> solve_ns{0};
  std::atomic<std::uint64_t> canonical_ns{0};
  std::atomic<std::uint64_t> reconstruct_ns{0};
  std::atomic<std::uint64_t> verify_ns{0};

  [[nodiscard]] std::string table(double total_seconds) const {
    const auto line = [](std::string name, std::uint64_t ns) {
      name.resize(18, ' ');
      const std::uint64_t tenth_ms = ns / 100000;
      return name + std::to_string(tenth_ms / 10) + "." + std::to_string(tenth_ms % 10) +
             " ms\n";
    };
    const auto load = [](const std::atomic<std::uint64_t>& ns) {
      return ns.load(std::memory_order_relaxed);
    };
    std::string out;
    out += line("subsets", load(subsets_ns));
    out += line("warm_start", load(warm_start_ns));
    out += line("prefix", load(prefix_ns));
    out += line("encode*", load(encode_ns));
    out += line("solve*", load(solve_ns));
    out += line("canonical_resolve", load(canonical_ns));
    out += line("reconstruct", load(reconstruct_ns));
    out += line("verify", load(verify_ns));
    out += line("total", static_cast<std::uint64_t>(total_seconds * 1e9));
    out += "(* summed across shard threads)\n";
    return out;
  }
};

/// Hardness proxy per instance for the hardest-first priority order: the
/// undirected edge count of the induced coupling subgraph. Sparse subsets
/// need more SWAPs, so their descending search runs longest; starting them
/// while the shared Eq. (5) bound is still loose maximises how much of
/// that work later bounds can abort, while dense subsets finish quickly
/// anywhere and publish tight bounds early. The ShardExecutor queue orders
/// tasks by (priority, request, index), so within one request equal-edge
/// instances keep subset-index order — exactly the old stable sort.
std::vector<long long> instance_hardness(const arch::CouplingMap& cm,
                                         const std::vector<std::vector<int>>& instances) {
  std::vector<long long> edges(instances.size(), 0);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& subset = instances[i];
    for (std::size_t a = 0; a < subset.size(); ++a) {
      for (std::size_t b = a + 1; b < subset.size(); ++b) {
        if (cm.coupled(subset[a], subset[b])) ++edges[i];
      }
    }
  }
  return edges;
}

/// What the solver phases hand to map_exact's one result assembly.
struct Verdict {
  std::optional<RouteBuilder> route;  // unset when no instance produced a model
  reason::Status status = reason::Status::Optimal;
  bool warm_fallback = false;  // the route is the greedy warm start, not a model
  int permutation_points = 1;
  int instances_solved = 0;
  long long bound_polls = 0;
  long long bound_tightenings = 0;
};

/// Solves the Sec. 4.1 instances of a circuit with CNOTs on the shared
/// executor and routes the deterministic winner's model, or the warm start
/// when no model was found in budget.
Verdict solve_and_route(const Circuit& circuit, const std::vector<Gate>& cnots,
                        const arch::CouplingMap& cm, const CostModel& costs,
                        const ExactOptions& options, Clock::time_point start,
                        PhaseTimes& phases, obs::Span& map_span) {
  const int n = circuit.num_qubits();
  const int m = cm.num_physical();
  const auto points = permutation_points(cnots, options.strategy, cm);
  Verdict verdict;
  verdict.permutation_points = static_cast<int>(points.size()) + 1;

  // Instance list (Sec. 4.1).
  std::vector<std::vector<int>> instances;
  if (options.use_subsets && n < m) {
    obs::Span span("exact.subsets", "exact", &phases.subsets_ns);
    instances = arch::connected_subsets(cm, n);
    span.attr("count", instances.size());
    if (instances.empty()) {
      throw std::invalid_argument("map_exact: no connected subset of the required size");
    }
  } else {
    if (m > 8) {
      // Reached without use_subsets, or with it when n == m leaves no
      // proper subset to pick: either way one instance spans all m qubits.
      std::string message =
          "map_exact: the full-architecture instance needs m <= 8 for Π enumeration, got m = ";
      message += std::to_string(m);
      if (n < m) message += "; set use_subsets to solve connected n-subsets instead";
      throw std::invalid_argument(message);
    }
    std::vector<int> all(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) all[static_cast<std::size_t>(i)] = i;
    instances.push_back(std::move(all));
  }
  map_span.attr("instances", instances.size());

  // Budget: one shared deadline for the whole instance sweep. Each shard
  // grants its next instance an equal share of the time still left (divided
  // by the number of instance "rounds" remaining across the pool), so time
  // unused by easy, skipped or Unsat instances flows to the hard ones
  // instead of expiring with them. `nominal_share` — the old fixed split —
  // caps the canonical re-solve after the reduction.
  const auto overall_deadline = start + options.budget;
  const auto nominal_share = std::chrono::milliseconds(
      std::max<long long>(1, options.budget.count() / static_cast<long long>(instances.size())));

  // --- Shard the subset instances through the process-wide executor ------
  //
  // The full protocol — shard lifecycle, shared-bound memory ordering, the
  // hardest-first pop order, and the determinism argument — is specified in
  // docs/concurrency.md; the comments here are the short version.
  //
  // Each instance becomes one task on the shared ShardExecutor (so shards
  // of concurrent map() calls interleave through a single pool instead of
  // one pool per call); `options.num_threads` survives as this request's
  // concurrency cap. Tasks pop hardest-first (instance_hardness). Each
  // executing thread owns its engine (the CDCL solver is not thread-safe),
  // scoped to *this request* so the bound-source closures below never
  // outlive the atomics they read. A shared atomic bound carries the best
  // model cost found so far: shards start their Eq. (5) search with
  // objective <= bound enforced, and keep polling it at engine checkpoints
  // *mid-solve* (cooperative tightening), aborting branches that can no
  // longer beat the incumbent.
  //
  // Determinism: the reduction below selects the lowest cost with ties
  // broken on the lowest subset index. A shard's reported optimum is
  // independent of the bounds it observed (bounds are inclusive and never
  // drop below the final best cost), so the selected (cost, index) pair is
  // bit-identical at every thread count and in any pop order; the winning
  // *model* is then re-derived canonically after the reduction.
  // When a shard proves a zero-cost solution — the objective's lower
  // bound — instances at *higher* indices are skipped: they can at best tie
  // and lose the index tie-break. Lower indices still run, preserving the
  // tie-break winner.
  constexpr long long kNoBound = std::numeric_limits<long long>::max();
  // A lone instance keeps priority 0: it pops ahead of other requests'
  // subset shards, whose priorities are edge counts.
  std::vector<long long> priorities(instances.size(), 0);
  if (instances.size() > 1) priorities = instance_hardness(cm, instances);

  // Warm start: with a single instance under the All strategy, the symbolic
  // formulation can express every swap schedule, so the greedy route's cost
  // is a feasible objective value and seeds the bound (see greedy_route).
  std::optional<RouteBuilder> warm;
  long long warm_cost = kNoBound;
  if (instances.size() == 1 && options.strategy == PermutationStrategy::All) {
    obs::Span span("exact.warm_start", "exact", &phases.warm_start_ns);
    warm = greedy_route(circuit, cm);
    // The bound lives in resolved objective units, not emitted-gate units —
    // they differ under ErrorWeighted and under explicit weight overrides.
    warm_cost = costs.result_cost(warm->swaps(), warm->reversed());
    span.attr("cost", warm_cost);
  }

  // Shared encoding prefix (Sec. 4.1): every subset instance of an n-qubit
  // circuit induces an n-qubit coupling map, so the x/y skeleton — Eq. (1)
  // and Eq. (3) — is byte-identical across instances. Build it once as an
  // engine-agnostic clause list; shards replay it into their engine for the
  // first instance and reset_to_prefix() for every later one (backends
  // without snapshot support just replay again from the list, still
  // skipping the per-instance constraint derivation).
  std::optional<Encoding::Prefix> prefix;
  if (instances.size() > 1) {
    obs::Span span("exact.prefix", "exact", &phases.prefix_ns);
    prefix.emplace(Encoding::build_prefix(cnots, n, n, points));
  }

  const std::size_t num_threads = resolve_num_threads(options.num_threads, instances.size());

  std::atomic<std::size_t> started{0};
  std::atomic<long long> shared_bound{warm_cost};
  std::atomic<long long> zero_index{kNoBound};  // lowest index proving cost 0
  std::atomic<long long> total_polls{0};
  std::atomic<long long> total_tightenings{0};
  std::atomic<bool> failed{false};
  std::vector<InstanceOutcome> outcomes(instances.size());
  std::mutex error_mutex;
  std::exception_ptr worker_error;

  // One engine per executing thread, reused across this request's instances
  // via the prefix snapshot — but owned by *this* stack frame, not the
  // executor thread: the engines (and the bound-source closures they hold
  // over `shared_bound`) are destroyed with the request, before the atomics
  // they capture. Engine stats are cumulative per engine, so per-instance
  // contributions are deltas against the last observed counters.
  struct EngineSlot {
    std::unique_ptr<reason::ReasoningEngine> engine;
    long long seen_polls = 0;
    long long seen_tightenings = 0;
  };
  std::mutex slots_mutex;
  std::unordered_map<std::thread::id, EngineSlot> slots;

  const auto solve_instance = [&](std::size_t i) {
    // Every pop counts toward `started` (skips included) so budget shares
    // track the queue position exactly like the old shared-counter pops.
    const std::size_t pos = started.fetch_add(1, std::memory_order_relaxed);
    if (failed.load(std::memory_order_acquire)) return;
    if (static_cast<long long>(i) > zero_index.load(std::memory_order_acquire)) return;
    obs::Span shard_span("exact.shard", "exact");
    shard_span.attr("instance", i);
    try {
      EngineSlot* slot = nullptr;
      {
        const std::lock_guard<std::mutex> guard(slots_mutex);
        // Pointers into an unordered_map stay valid across rehash.
        slot = &slots[std::this_thread::get_id()];
      }
      InstanceOutcome& out = outcomes[i];
      const arch::CouplingMap induced = cm.induced(instances[i]);
      out.table = arch::SwapCostCache::instance().table(induced);
      const bool holds_prefix = slot->engine && prefix && slot->engine->reset_to_prefix();
      if (!holds_prefix) {
        slot->engine = reason::make_engine(options.engine);
        slot->seen_polls = 0;
        slot->seen_tightenings = 0;
      }
      reason::ReasoningEngine& engine = *slot->engine;
      std::optional<Encoding> enc;
      {
        obs::Span span("exact.encode", "exact", &phases.encode_ns);
        span.attr("prefix_reused", holds_prefix);
        if (prefix) {
          enc.emplace(engine, *prefix, induced, *out.table, costs, holds_prefix);
        } else {
          enc.emplace(engine, cnots, n, induced, *out.table, points, costs);
        }
      }
      const long long bound = shared_bound.load(std::memory_order_acquire);
      if (bound != kNoBound) engine.set_upper_bound(bound);
      if (instances.size() > 1) {
        // Live view of the shared bound: the engine re-tightens its GTE /
        // PB constraint whenever a sibling publishes a cheaper model.
        // Pointless with a single instance (no sibling can publish), and
        // skipping it there spares the engine its checkpoint overhead —
        // the Z3 backend in particular trades contiguous search time for
        // poll opportunities (see Z3Engine::kPollInterval).
        engine.set_bound_source([&shared_bound] {
          return shared_bound.load(std::memory_order_acquire);
        });
      }
      // This instance's share of the remaining budget: the time left to
      // the shared deadline, divided by the rounds of instances this
      // request still has to absorb (this one included).
      const std::size_t rounds = (instances.size() - pos + num_threads - 1) / num_threads;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          overall_deadline - Clock::now());
      const auto share = std::chrono::milliseconds(
          std::max<long long>(1, left.count() / static_cast<long long>(rounds)));
      reason::Outcome outcome;
      {
        obs::Span span("exact.solve", "exact", &phases.solve_ns);
        span.attr("budget_ms", static_cast<long long>(share.count()));
        outcome = engine.minimize(share);
        span.attr("status", reason::to_string(outcome.status));
      }
      total_polls.fetch_add(engine.stats().bound_polls - slot->seen_polls,
                            std::memory_order_relaxed);
      total_tightenings.fetch_add(engine.stats().bound_tightenings - slot->seen_tightenings,
                                  std::memory_order_relaxed);
      slot->seen_polls = engine.stats().bound_polls;
      slot->seen_tightenings = engine.stats().bound_tightenings;
      out.status = outcome.status;
      if (outcome.status != reason::Status::Optimal &&
          outcome.status != reason::Status::Feasible) {
        return;
      }
      out.solution = enc->decode();
      const long long cost = out.solution->cost_f;
      long long cur = shared_bound.load(std::memory_order_acquire);
      while (cost < cur &&
             !shared_bound.compare_exchange_weak(cur, cost, std::memory_order_acq_rel)) {
      }
      if (cost == 0) {
        long long zi = zero_index.load(std::memory_order_acquire);
        const auto me = static_cast<long long>(i);
        while (me < zi && !zero_index.compare_exchange_weak(zi, me, std::memory_order_acq_rel)) {
        }
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> guard(error_mutex);
        if (!worker_error) worker_error = std::current_exception();
      }
      // Make the remaining tasks no-ops so siblings stop promptly instead
      // of solving instances whose results the rethrow below will discard.
      failed.store(true, std::memory_order_release);
    }
  };

  ShardExecutor& executor = ShardExecutor::instance();
  executor.run_to_completion(executor.submit(solve_instance, priorities, num_threads));
  if (worker_error) std::rethrow_exception(worker_error);
  verdict.bound_polls = total_polls.load(std::memory_order_relaxed);
  verdict.bound_tightenings = total_tightenings.load(std::memory_order_relaxed);
  static obs::Counter& instances_total = obs::MetricsRegistry::instance().counter(
      "qxmap_exact_instances_solved_total",
      "Subset-instance shard tasks dequeued by maps that returned, including tasks "
      "skipped once a lower index proved cost 0");
  instances_total.inc(static_cast<std::uint64_t>(started.load(std::memory_order_relaxed)));

  // --- Deterministic reduction -------------------------------------------
  // Truncate at the first zero-cost subset (everything after it was either
  // skipped or can only lose the tie-break), then scan in index order.
  std::size_t effective = instances.size();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].solution && outcomes[i].solution->cost_f == 0) {
      effective = i + 1;
      break;
    }
  }

  std::optional<InstanceSolution> best;
  bool any_feasible_not_optimal = false;
  bool any_unknown = false;
  for (std::size_t i = 0; i < effective; ++i) {
    InstanceOutcome& out = outcomes[i];
    ++verdict.instances_solved;
    if (out.status == reason::Status::Unsat) continue;
    if (out.status == reason::Status::Unknown) {
      any_unknown = true;
      continue;
    }
    if (out.status == reason::Status::Feasible) any_feasible_not_optimal = true;
    if (!out.solution) continue;
    if (!best || out.solution->cost_f < best->solution.cost_f) {
      best = InstanceSolution{std::move(*out.solution), instances[i], std::move(out.table),
                              out.status};
    }
  }

  if (!best) {
    if (warm) {
      // Budget expired before any model under the seeded bound was found;
      // fall back to the warm start itself (feasible by construction).
      verdict.route = std::move(warm);
      verdict.status = reason::Status::Feasible;
      verdict.warm_fallback = true;
    } else {
      verdict.status = any_unknown ? reason::Status::Unknown : reason::Status::Unsat;
    }
    return verdict;
  }

  // --- Canonical model re-derivation -------------------------------------
  // A shard's decoded model can depend on the bound it happened to observe
  // (the bound changes the search path, and several optimal models may
  // exist), while its reported *cost* cannot. With more than one instance
  // the winner is therefore re-solved once under the canonical bound C* —
  // fully determined by the inputs — so the emitted layouts are
  // bit-identical at every thread count. The bounded re-solve is cheap: a
  // model of cost C* is known to exist and nothing below it does.
  if (instances.size() > 1) {
    obs::Span span("exact.canonical_resolve", "exact", &phases.canonical_ns);
    const long long canonical = best->solution.cost_f;
    span.attr("cost", canonical);
    const arch::CouplingMap induced = cm.induced(best->subset);
    auto engine = reason::make_engine(options.engine);
    const Encoding enc(*engine, cnots, n, induced, *best->table, points, costs);
    engine->set_upper_bound(canonical);
    const reason::Outcome outcome = engine->minimize(nominal_share);
    if (outcome.status == reason::Status::Optimal ||
        outcome.status == reason::Status::Feasible) {
      Encoding::Solution sol = enc.decode();
      if (sol.cost_f <= canonical) best->solution = std::move(sol);
    }
    // Otherwise the budget expired mid-re-solve; keep the phase-1 model
    // (correct, merely not canonical — determinism is forfeit on timeouts
    // anyway).
  }

  verdict.route = [&] {
    obs::Span span("exact.reconstruct", "exact", &phases.reconstruct_ns);
    return reconstruct(circuit, cm, *best, points);
  }();
  verdict.status = (any_feasible_not_optimal || any_unknown) ? reason::Status::Feasible
                                                             : reason::Status::Optimal;
  // Consistency: the emitted insertions must reproduce the model's objective
  // under the resolved weights (gate units and objective units coincide only
  // for GateCount with derived weights).
  if (costs.result_cost(verdict.route->swaps(), verdict.route->reversed()) !=
      best->solution.cost_f) {
    throw std::logic_error("map_exact: emitted gate overhead disagrees with model cost");
  }
  return verdict;
}

}  // namespace

MappingResult map_exact(const Circuit& circuit, const arch::CouplingMap& cm,
                        const ExactOptions& options) {
  const auto start = Clock::now();
  if (circuit.num_qubits() > cm.num_physical()) {
    throw std::invalid_argument("map_exact: circuit needs more qubits than the architecture has");
  }
  if (circuit.counts().swap > 0) {
    // Raw swap pseudo-gates in the *input* are decomposed here (Fig. 3 form)
    // and their elementary gates routed like any others.
    return map_exact(circuit.with_swaps_expanded(), cm, options);
  }

  obs::Span map_span("exact.map", "exact");
  map_span.attr("circuit", circuit.name());
  map_span.attr("arch", cm.name());
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_exact_maps_total", "map_exact calls reaching the solver pipeline");
  maps_total.inc();
  PhaseTimes phases;

  // CNOT skeleton.
  std::vector<Gate> cnots;
  for (const auto& g : circuit) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  const CostModel costs = options.costs.resolved(cm);
  Verdict verdict;
  if (cnots.empty()) {
    // Nothing to route: every gate stays on the identity placement.
    verdict.route.emplace(circuit, cm);
    for (const auto& g : circuit) verdict.route->gate(g);
  } else {
    verdict = solve_and_route(circuit, cnots, cm, costs, options, start, phases, map_span);
  }

  MappingResult res;
  if (verdict.route) {
    obs::Span span("exact.verify", "exact", &phases.verify_ns);
    res = std::move(*verdict.route).finish(costs, options.verify);
    if (verdict.warm_fallback && options.verify) {
      res.verify_message += "; warm-start fallback (engine found no model in budget)";
    }
    span.attr("verified", res.verified);
  }
  // Report the engine that actually runs, not the requested kind: without
  // Z3 support, make_engine(EngineKind::Z3) degrades to the CDCL backend.
  res.engine_name = reason::make_engine(options.engine)->name();
  res.objective = to_string(costs.objective);
  res.status = verdict.status;
  res.permutation_points = verdict.permutation_points;
  res.instances_solved = verdict.instances_solved;
  res.bound_polls = verdict.bound_polls;
  res.bound_tightenings = verdict.bound_tightenings;
  res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (map_span.active()) res.trace_summary = phases.table(res.seconds);
  return res;
}

}  // namespace qxmap::exact
