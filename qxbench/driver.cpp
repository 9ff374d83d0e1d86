/// \file driver.cpp
/// Workload driver of the qxmap benchmark. `run.py` builds and runs it.
///
/// The driver generates seeded inputs, drives the library only through its
/// public functions, checks every output, and writes a JSON report of raw
/// samples, check results and metrics-registry snapshots. run.py reduces
/// the report to the metrics declared in BENCHMARK.json.
///
/// Usage:
///   qxbench run      --workload W --seed N --seconds S --report FILE
///   qxbench setup    --workload W --seed N     set up, print "ready", exit
///   qxbench inputs   --workload W --seed N [--count K]   one digest line per input
///   qxbench selftest                            tampered results must fail the checks
///
/// `run` and `setup` print "ready" once set-up is done, so the caller can
/// time set-up from process start. Tracing follows QXMAP_TRACE: when it is
/// on, the driver's own spans (category "bench") wrap each call into the
/// library and the trace is written to FILE.trace.json as Chrome-trace JSON.
///
/// Workloads, and why each was chosen:
///  * exact-qx4 — one closed-loop caller maps seeded Table-1-shaped circuits
///    (bench::structured_circuit over the shapes of table1_benchmarks(), hard
///    rows included) with the exact method on QX4: Sec. 4.1 subsets, CDCL,
///    the default executor and a fixed kExactBudget. Each round of 25 maps
///    holds every shape once; 5 run under CostObjective::ErrorWeighted and 1
///    under PermutationStrategy::DisjointQubits. Nearly all of its time is in
///    the exact mapper, the SAT engine and the shard executor; the objective
///    and strategy shares show whether a gain for GateCount/All costs the
///    other variants.
///  * heuristic-wide — one closed-loop caller maps seeded SU(4) circuits
///    (bench::su4_random_circuit): SABRE and stochastic swap on hex27, hex65
///    and a small share of hex127; A*, SABRE and stochastic swap on Tokyo.
///    It exercises the heuristics, the distance matrices and GF(2)
///    verification on wide architectures and never enters the SAT engine,
///    the executor or the service cache. A* runs on Tokyo only: on hex27 it
///    fails from 16 logical qubits on, with "search budget exhausted" or
///    std::bad_alloc, and is OOM-killed when memory is not capped (a known
///    defect, left to the robustness work). The layer-weight heuristic is
///    left out.
///  * service-mixed — one closed-loop caller per hardware thread sends QASM
///    text to one api::MappingService and writes the mapped QASM back.
///    Seeded requests follow a Zipf law over a fixed pool larger than the
///    cache capacity, mixing cheap exact QX4 requests and heuristic Tokyo
///    requests. It is the
///    only workload where cache hits sit beside misses, inserts, evictions
///    and in-flight joins, and where distinct misses contend on the executor.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/qxmap.hpp"
#include "api/service.hpp"
#include "arch/subsets.hpp"
#include "arch/swap_cost_cache.hpp"
#include "arch/swap_costs.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/encoder.hpp"
#include "exact/reference_search.hpp"
#include "exact/shard_executor.hpp"
#include "exact/strategies.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/equivalence.hpp"
#include "sim/linear_reversible.hpp"

namespace {

using namespace qxmap;
using Clock = std::chrono::steady_clock;

/// Solver budget of every exact-qx4 map. About two in five maps prove within
/// it; the rest return their best model when it runs out.
constexpr std::chrono::milliseconds kExactBudget{300};
/// The service pool's exact requests are small enough to prove in well
/// under a second; the generous budget keeps them proven (and so
/// deterministic) while callers contend for the executor.
constexpr std::chrono::milliseconds kServiceExactBudget{10000};
constexpr std::size_t kServicePool = 160;  // > MappingService::kDefaultCapacity
constexpr double kZipfExponent = 1.0;
constexpr double kServiceWarmupSeconds = 1.0;
constexpr std::uint64_t kServiceCorpusSeed = 20190602;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Seeded draws. The driver's own choices (shape order, variants, Zipf ranks)
// use splitmix64 rather than the library's Rng, so a change to the library
// never changes which inputs the benchmark sends.
// ---------------------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream, std::uint64_t index = 0) {
  return splitmix(splitmix(seed ^ splitmix(stream)) ^ index);
}

class Draws {
 public:
  explicit Draws(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = splitmix(state_); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

struct Architectures {
  arch::CouplingMap qx4 = arch::ibm_qx4();
  arch::CouplingMap tokyo = arch::ibm_tokyo();
  arch::CouplingMap hex27 = arch::ibm_hex27();
  arch::CouplingMap hex65 = arch::ibm_hex65();
  arch::CouplingMap hex127 = arch::ibm_hex127();
};

const Architectures& archs() {
  static const Architectures a;
  return a;
}

struct Request {
  std::string label;  // exact | sabre | stochastic | astar
  const arch::CouplingMap* arch = nullptr;
  Circuit circuit;
  MapOptions options;
};

MapOptions exact_options(exact::PermutationStrategy strategy, exact::CostObjective objective,
                         std::chrono::milliseconds budget) {
  MapOptions o;
  o.method = Method::Exact;
  o.exact.engine = reason::EngineKind::Cdcl;
  o.exact.use_subsets = true;
  o.exact.strategy = strategy;
  o.exact.costs.objective = objective;
  o.exact.budget = budget;
  return o;
}

MapOptions heuristic_options(const std::string& label) {
  MapOptions o;
  if (label == "sabre") o.method = Method::Sabre;
  else if (label == "stochastic") o.method = Method::StochasticSwap;
  else if (label == "astar") o.method = Method::AStar;
  else throw std::invalid_argument("qxbench: unknown heuristic " + label);
  return o;
}

/// exact-qx4 request `i`: rounds of one map per Table-1 shape, in a seeded
/// order. In each round a seeded five maps run error-weighted and one on
/// disjoint-qubit permutation points. The disjoint share is small because
/// its budget-limited results run to ten times the optimum: a larger share
/// would let a handful of them decide added_gates_ratio.
Request exact_request(std::uint64_t seed, std::size_t i) {
  const auto& rows = bench::table1_benchmarks();
  const std::size_t round = i / rows.size();
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  Draws(derive(seed, 1, round)).shuffle(order);
  enum Variant { kGateCount, kErrorWeighted, kDisjoint };
  std::vector<Variant> variant(rows.size(), kGateCount);
  std::fill(variant.begin(), variant.begin() + 5, kErrorWeighted);
  variant[5] = kDisjoint;
  Draws(derive(seed, 2, round)).shuffle(variant);

  const std::size_t pos = i % rows.size();
  const auto& row = rows[order[pos]];
  Request r;
  r.label = "exact";
  r.arch = &archs().qx4;
  r.circuit = bench::structured_circuit(row.n, row.single_qubit, row.cnot, derive(seed, 3, i),
                                        row.name + "#" + std::to_string(i));
  r.options = exact_options(variant[pos] == kDisjoint ? exact::PermutationStrategy::DisjointQubits
                                                      : exact::PermutationStrategy::All,
                            variant[pos] == kErrorWeighted ? exact::CostObjective::ErrorWeighted
                                                           : exact::CostObjective::GateCount,
                            kExactBudget);
  return r;
}

struct HeuristicConfig {
  const arch::CouplingMap* arch;
  const char* label;
  int qubits;
  int layers;
};

/// One heuristic-wide round: 14 maps, fastest to slowest roughly 2 ms to
/// 250 ms; every fourth round swaps one hex127 SABRE map for a stochastic
/// one (~0.7 s), the small hex127 share. The two hex65 stochastic maps put
/// the 90th percentile inside their cluster, not in a gap between clusters.
std::vector<HeuristicConfig> heuristic_round(std::size_t round) {
  const auto& a = archs();
  std::vector<HeuristicConfig> configs = {
      {&a.tokyo, "sabre", 20, 4},      {&a.tokyo, "stochastic", 20, 4},
      {&a.tokyo, "astar", 16, 4},      {&a.tokyo, "astar", 20, 4},
      {&a.hex27, "sabre", 20, 6},      {&a.hex27, "sabre", 27, 4},
      {&a.hex27, "stochastic", 20, 4}, {&a.hex27, "stochastic", 27, 4},
      {&a.hex65, "sabre", 48, 4},      {&a.hex65, "sabre", 65, 3},
      {&a.hex65, "stochastic", 48, 3}, {&a.hex65, "stochastic", 48, 3},
      {&a.hex127, "sabre", 100, 2},
  };
  if (round % 4 == 3) {
    configs.push_back({&a.hex127, "stochastic", 64, 2});
  } else {
    configs.push_back({&a.hex127, "sabre", 100, 2});
  }
  return configs;
}

Request heuristic_request(std::uint64_t seed, std::size_t i) {
  const std::size_t per_round = heuristic_round(0).size();
  const std::size_t round = i / per_round;
  auto configs = heuristic_round(round);
  Draws(derive(seed, 4, round)).shuffle(configs);
  const HeuristicConfig& c = configs[i % per_round];
  Request r;
  r.label = c.label;
  r.arch = c.arch;
  r.circuit = bench::su4_random_circuit(c.qubits, c.layers, derive(seed, 5, i),
                                        "su4-" + c.arch->name() + "#" + std::to_string(i));
  r.options = heuristic_options(c.label);
  return r;
}

/// Service pool entry `rank` (0 = most requested). The pool is a fixed
/// corpus: with a Zipf law a score of hot entries carry most of the
/// traffic, so drawing their circuits from the run's seed would let those
/// few circuits decide every metric. The seed drives the traffic instead.
/// Seven in ten ranks are cheap exact QX4 requests, the rest heuristic
/// Tokyo requests.
Request service_request(std::size_t rank) {
  Draws d(derive(kServiceCorpusSeed, 6, rank));
  Request r;
  const std::string name = "svc#" + std::to_string(rank);
  if (rank % 10 < 7) {
    const int n = 3 + static_cast<int>(d.below(3));
    const int single = 4 + static_cast<int>(d.below(5));
    const int cnot = 5 + static_cast<int>(d.below(5));
    r.label = "exact";
    r.arch = &archs().qx4;
    r.circuit = bench::structured_circuit(n, single, cnot, d.next(), name);
    r.options = exact_options(exact::PermutationStrategy::All, exact::CostObjective::GateCount,
                              kServiceExactBudget);
  } else {
    static const char* const kLabels[] = {"sabre", "stochastic", "astar"};
    r.label = kLabels[(rank / 10) % 3];
    r.arch = &archs().tokyo;
    const int n = 10 + static_cast<int>(d.below(7));
    const int layers = 2 + static_cast<int>(d.below(2));
    r.circuit = bench::su4_random_circuit(n, layers, d.next(), name);
    r.options = heuristic_options(r.label);
  }
  return r;
}

/// Inverse-CDF sampler of the Zipf law over ranks 0 .. n-1.
class Zipf {
 public:
  Zipf(std::size_t n, double exponent) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(Draws& d) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), d.uniform());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// What the checker measured and found for one result.
struct CheckOutcome {
  std::vector<std::string> errors;
  long long optimum = -1;  ///< gate-count DP optimum (all points, full QX4); -1 if not computed
  double reference_ms = 0.0;
  double verify_ms = 0.0;
  double write_us = 0.0;
  double parse_us = 0.0;
  double key_us = 0.0;
  long long prefix_vars = -1;
  long long prefix_clauses = -1;
  std::size_t parsed_gates = 0;
};

std::vector<Gate> cnots_of(const Circuit& c) {
  std::vector<Gate> out;
  for (const Gate& g : c) {
    if (g.is_cnot()) out.push_back(g);
  }
  return out;
}

/// Checks mapping results against the request that produced them. Its own
/// swaps(π) tables keep the oracle's work out of the SwapCostCache counters.
class Checker {
 public:
  CheckOutcome check(const Request& req, const exact::MappingResult& res) {
    CheckOutcome out;
    const auto fail = [&](const std::string& what) {
      out.errors.push_back(req.circuit.name() + ": " + what);
    };
    const arch::CouplingMap& cm = *req.arch;
    const Circuit& original = req.circuit;

    if (!res.verified) fail("result not verified (" + res.verify_message + ")");
    for (const Gate& g : res.mapped) {
      if (g.is_cnot() && !cm.allows(g.control, g.target)) {
        fail("CNOT " + std::to_string(g.control) + "->" + std::to_string(g.target) +
             " is not a coupling edge");
        break;
      }
      if (g.is_swap()) {
        fail("unexpanded SWAP in the mapped circuit");
        break;
      }
    }
    if (res.cost_f !=
        static_cast<long long>(res.mapped.size()) - static_cast<long long>(original.size())) {
      fail("cost_f " + std::to_string(res.cost_f) + " disagrees with the mapped gate count");
    }

    {
      obs::Span span("bench.verify", "bench");
      const auto t0 = Clock::now();
      bool equivalent = false;
      if (cm.num_physical() <= 16) {
        equivalent = sim::check_mapped_circuit(original, res.mapped, res.initial_layout,
                                               res.final_layout)
                         .equivalent;
      } else {
        equivalent = sim::implements_skeleton(original.cnot_skeleton(), res.routed_skeleton,
                                              res.initial_layout, res.final_layout);
      }
      out.verify_ms = ms_between(t0, Clock::now());
      if (!equivalent) fail("mapped circuit is not equivalent to the original");
    }

    const std::vector<Gate> cnots = cnots_of(original);
    if (req.options.method == Method::Exact && !cnots.empty()) {
      check_exact(req, res, cnots, out, fail);
    }

    std::string text;
    {
      obs::Span span("bench.write", "bench");
      const auto t0 = Clock::now();
      text = qasm::write(res.mapped);
      out.write_us = 1000.0 * ms_between(t0, Clock::now());
    }
    {
      obs::Span span("bench.parse", "bench");
      const auto t0 = Clock::now();
      const Circuit back = qasm::parse(text, res.mapped.name());
      out.parse_us = 1000.0 * ms_between(t0, Clock::now());
      out.parsed_gates = back.size();
      if (qasm::write(back) != text) fail("mapped QASM does not round-trip");
    }
    {
      obs::Span span("bench.cache_key", "bench");
      const auto t0 = Clock::now();
      (void)api::MappingService::cache_key(original, cm, req.options);
      out.key_us = 1000.0 * ms_between(t0, Clock::now());
    }
    return out;
  }

 private:
  template <typename Fail>
  void check_exact(const Request& req, const exact::MappingResult& res,
                   const std::vector<Gate>& cnots, CheckOutcome& out, const Fail& fail) {
    const arch::CouplingMap& cm = *req.arch;
    const exact::ExactOptions& eo = req.options.exact;
    const int n = req.circuit.num_qubits();
    const int m = cm.num_physical();
    const bool subsets = eo.use_subsets && n < m;
    const auto points = exact::permutation_points(cnots, eo.strategy, cm);

    {
      obs::Span span("bench.build_prefix", "bench");
      const auto prefix = exact::Encoding::build_prefix(cnots, n, subsets ? n : m, points);
      out.prefix_vars = static_cast<long long>(prefix.var_count);
      out.prefix_clauses = static_cast<long long>(prefix.clause_count);
    }
    if (m > 8) return;  // placement enumeration is out of the oracle's reach

    obs::Span span("bench.reference", "bench");
    const auto t0 = Clock::now();
    const exact::CostModel costs = eo.costs.resolved(cm);
    if (res.objective_cost != costs.result_cost(res.swaps_inserted, res.cnots_reversed)) {
      fail("objective_cost disagrees with the inserted SWAPs and reversals");
    }
    const auto ref = exact::minimal_cost_reference(cnots, n, cm, table(cm), points, costs);
    if (!ref.feasible) {
      fail("the DP oracle finds no mapping");
    } else if (res.objective_cost < ref.cost_f) {
      fail("cost " + std::to_string(res.objective_cost) + " beats the DP optimum " +
           std::to_string(ref.cost_f));
    }
    if (res.status == reason::Status::Optimal && ref.feasible) {
      // Optimal means optimal over the instances the mapper solved: the
      // connected n-subsets under Sec. 4.1, else the whole architecture.
      long long best = ref.cost_f;
      if (subsets) {
        best = -1;
        for (const auto& subset : arch::connected_subsets(cm, n)) {
          const arch::CouplingMap induced = cm.induced(subset);
          const auto r =
              exact::minimal_cost_reference(cnots, n, induced, table(induced), points, costs);
          if (r.feasible && (best < 0 || r.cost_f < best)) best = r.cost_f;
        }
      }
      if (res.objective_cost != best) {
        fail("proven cost " + std::to_string(res.objective_cost) + " differs from the optimum " +
             std::to_string(best));
      }
    }
    if (eo.costs.objective == exact::CostObjective::GateCount) {
      if (eo.strategy == exact::PermutationStrategy::All) {
        out.optimum = ref.cost_f;
      } else {
        const auto all = exact::permutation_points(cnots, exact::PermutationStrategy::All, cm);
        out.optimum =
            exact::minimal_cost_reference(cnots, n, cm, table(cm), all, costs).cost_f;
      }
    }
    out.reference_ms = ms_between(t0, Clock::now());
  }

  const arch::SwapCostTable& table(const arch::CouplingMap& cm) {
    auto it = tables_.find(cm.fingerprint());
    if (it == tables_.end()) {
      it = tables_.emplace(cm.fingerprint(), std::make_unique<arch::SwapCostTable>(cm)).first;
    }
    return *it->second;
  }

  std::map<std::string, std::unique_ptr<arch::SwapCostTable>> tables_;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One timed map as the benchmark saw it.
struct Sample {
  double ms = 0.0;
  std::string label;
  bool ok = false;  ///< the map returned and passed every check
  bool from_cache = false;
  bool proven = false;
  long long cost_f = 0;
  long long gates = 0;
  long long cnots = 0;
  long long swaps = 0;
  long long optimum = -1;
  double parse_us = -1.0;  ///< in-request QASM parse (service-mixed only)
  double write_us = -1.0;  ///< in-request QASM write (service-mixed only)
};

Sample sample_of(const Request& req, const exact::MappingResult& res, double ms) {
  Sample s;
  s.ms = ms;
  s.label = req.label;
  s.from_cache = res.from_cache;
  s.proven = res.status == reason::Status::Optimal;
  s.cost_f = res.cost_f;
  s.gates = static_cast<long long>(req.circuit.size());
  s.cnots = static_cast<long long>(cnots_of(req.circuit).size());
  s.swaps = res.swaps_inserted;
  return s;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

template <typename T, typename Get>
void json_array(std::ostream& os, const char* key, const std::vector<T>& items, Get get) {
  os << "  " << json_string(key) << ": [";
  for (std::size_t i = 0; i < items.size(); ++i) os << (i ? ", " : "") << get(items[i]);
  os << "],\n";
}

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  double timed_s = 0.0;  ///< time the workload's maps ran (wall for concurrent callers)
  std::size_t callers = 1;
  std::size_t attempted = 0;
  std::size_t failed = 0;             ///< attempted maps that threw or failed a check
  std::vector<Sample> samples;        ///< timed maps
  std::vector<CheckOutcome> checks;  ///< one per checked result
  std::vector<std::string> errors;
  std::map<std::string, double> setup_ms;  ///< cold build times of set-up
  std::string registry_before;
  std::string registry_after;
  long long peak_rss_kb = 0;
};

void write_report(const RunResult& r, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("qxbench: cannot write " + path);
  os.precision(12);
  os << "{\n";
  os << "  \"workload\": " << json_string(r.workload) << ",\n";
  os << "  \"seed\": " << r.seed << ",\n";
  os << "  \"traced\": " << (r.traced ? "true" : "false") << ",\n";
  os << "  \"timed_s\": " << r.timed_s << ",\n";
  os << "  \"callers\": " << r.callers << ",\n";
  os << "  \"executor_threads\": " << exact::ShardExecutor::instance().num_threads() << ",\n";
  os << "  \"attempted\": " << r.attempted << ",\n";
  os << "  \"failed\": " << r.failed << ",\n";
  os << "  \"peak_rss_kb\": " << r.peak_rss_kb << ",\n";
  os << "  \"setup_ms\": {";
  bool first = true;
  for (const auto& [k, v] : r.setup_ms) {
    os << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  os << "},\n";
  const auto& s = r.samples;
  json_array(os, "ms", s, [](const Sample& x) { return x.ms; });
  json_array(os, "label", s, [](const Sample& x) { return json_string(x.label); });
  json_array(os, "from_cache", s, [](const Sample& x) { return x.from_cache ? "true" : "false"; });
  json_array(os, "proven", s, [](const Sample& x) { return x.proven ? "true" : "false"; });
  json_array(os, "cost_f", s, [](const Sample& x) { return x.cost_f; });
  json_array(os, "gates", s, [](const Sample& x) { return x.gates; });
  json_array(os, "cnots", s, [](const Sample& x) { return x.cnots; });
  json_array(os, "swaps", s, [](const Sample& x) { return x.swaps; });
  json_array(os, "optimum", s, [](const Sample& x) { return x.optimum; });
  json_array(os, "req_parse_us", s, [](const Sample& x) { return x.parse_us; });
  json_array(os, "req_write_us", s, [](const Sample& x) { return x.write_us; });
  const auto& c = r.checks;
  json_array(os, "reference_ms", c, [](const CheckOutcome& x) { return x.reference_ms; });
  json_array(os, "verify_ms", c, [](const CheckOutcome& x) { return x.verify_ms; });
  json_array(os, "write_us", c, [](const CheckOutcome& x) { return x.write_us; });
  json_array(os, "parse_us", c, [](const CheckOutcome& x) { return x.parse_us; });
  json_array(os, "parsed_gates", c, [](const CheckOutcome& x) { return x.parsed_gates; });
  json_array(os, "key_us", c, [](const CheckOutcome& x) { return x.key_us; });
  json_array(os, "prefix_vars", c, [](const CheckOutcome& x) { return x.prefix_vars; });
  json_array(os, "prefix_clauses", c, [](const CheckOutcome& x) { return x.prefix_clauses; });
  json_array(os, "errors", r.errors, [](const std::string& e) { return json_string(e); });
  os << "  \"registry_before\": " << r.registry_before << ",\n";
  os << "  \"registry_after\": " << r.registry_after << "\n";
  os << "}\n";
  if (!os) throw std::runtime_error("qxbench: failed writing " + path);
}

long long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Builds what the workload's first request would otherwise build: the
/// swaps(π) tables of QX4 and its Sec. 4.1 subsets, the distance matrices of
/// the heuristic architectures, and the executor's threads. Each build is a
/// cold SwapCostCache call, timed.
std::map<std::string, double> set_up(const std::string& workload) {
  auto& cache = arch::SwapCostCache::instance();
  cache.clear();
  std::map<std::string, double> ms{{"swap_table", 0.0}, {"distances", 0.0}};
  const auto& a = archs();
  const auto tables = [&](const arch::CouplingMap& cm) {
    obs::Span span("bench.swap_table", "bench");
    const auto t0 = Clock::now();
    (void)cache.table(cm);
    for (int n = 2; n < cm.num_physical(); ++n) {
      for (const auto& subset : arch::connected_subsets(cm, n)) (void)cache.table(cm.induced(subset));
    }
    ms["swap_table"] += ms_between(t0, Clock::now());
  };
  const auto distances = [&](const arch::CouplingMap& cm) {
    obs::Span span("bench.distances", "bench");
    const auto t0 = Clock::now();
    (void)cache.distances(cm);
    ms["distances"] += ms_between(t0, Clock::now());
  };
  if (workload == "exact-qx4") {
    tables(a.qx4);
  } else if (workload == "heuristic-wide") {
    for (const auto* cm : {&a.tokyo, &a.hex27, &a.hex65, &a.hex127}) distances(*cm);
  } else {
    tables(a.qx4);
    distances(a.tokyo);
  }
  (void)exact::ShardExecutor::instance().num_threads();
  return ms;
}

// ---------------------------------------------------------------------------
// Timed phases
// ---------------------------------------------------------------------------

/// One closed-loop caller issuing `next(i)` until `seconds` of map time have
/// been spent; each result is checked between maps, outside the timing.
void run_single_caller(RunResult& run, double seconds,
                       const std::function<Request(std::size_t)>& next) {
  Checker checker;
  double timed_ms = 0.0;
  for (std::size_t i = 0; timed_ms < seconds * 1000.0; ++i) {
    const Request req = next(i);
    ++run.attempted;
    std::optional<exact::MappingResult> res;
    std::string error;
    const auto t0 = Clock::now();
    {
      obs::Span span("bench.map", "bench");
      try {
        res = qxmap::map(req.circuit, *req.arch, req.options);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    const double ms = ms_between(t0, Clock::now());
    timed_ms += ms;
    if (!res) {
      ++run.failed;
      run.errors.push_back(req.circuit.name() + ": map threw: " + error);
      Sample s;
      s.ms = ms;
      s.label = req.label;
      run.samples.push_back(std::move(s));
      continue;
    }
    Sample s = sample_of(req, *res, ms);
    CheckOutcome check = checker.check(req, *res);
    s.optimum = check.optimum;
    s.ok = check.errors.empty();
    if (!s.ok) ++run.failed;
    run.errors.insert(run.errors.end(), check.errors.begin(), check.errors.end());
    run.samples.push_back(std::move(s));
    run.checks.push_back(std::move(check));
  }
  run.timed_s = timed_ms / 1000.0;
}

/// service-mixed: every hardware thread is a closed-loop caller of one
/// MappingService. A request is parse → map → write, timed as one.
void run_service(RunResult& run, std::uint64_t seed, double seconds,
                 const std::vector<Request>& pool, const std::vector<std::string>& pool_qasm,
                 const std::function<void()>& before_timing) {
  api::MappingService service(api::MappingService::kDefaultCapacity);
  const Zipf zipf(pool.size(), kZipfExponent);

  // First result seen per pool entry: every later response for the same
  // entry must be byte-identical to it, cache hit or not.
  struct Slot {
    std::mutex mutex;
    bool seen = false;
    std::string qasm;
    std::optional<exact::MappingResult> result;
  };
  std::deque<Slot> slots(pool.size());

  struct Caller {
    std::vector<Sample> samples;
    std::vector<std::size_t> ranks;
    std::vector<std::string> errors;
    std::size_t attempted = 0;
    std::size_t warmup_failed = 0;
    std::vector<std::size_t> warmup_ok_ranks;  // re-judged by the entry checks below
  };
  const std::size_t callers = std::max(1u, std::thread::hardware_concurrency());
  run.callers = callers;

  const auto drive = [&](Caller& c, Draws& draws, Clock::time_point until, bool keep) {
    while (Clock::now() < until) {
      const std::size_t rank = zipf(draws);
      const Request& req = pool[rank];
      ++c.attempted;
      std::optional<exact::MappingResult> res;
      std::string out;
      std::string error;
      Clock::time_point parsed;
      Clock::time_point mapped;
      const auto t0 = Clock::now();
      {
        obs::Span span("bench.map", "bench");
        try {
          Circuit circuit;
          {
            obs::Span parse_span("bench.parse", "bench");
            circuit = qasm::parse(pool_qasm[rank], req.circuit.name());
          }
          parsed = Clock::now();
          res = service.map(circuit, *req.arch, req.options);
          mapped = Clock::now();
          obs::Span write_span("bench.write", "bench");
          out = qasm::write(res->mapped);
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      const auto t1 = Clock::now();
      const double ms = ms_between(t0, t1);
      Sample s;
      if (res) {
        s = sample_of(req, *res, ms);
        s.parse_us = 1000.0 * ms_between(t0, parsed);
        s.write_us = 1000.0 * ms_between(mapped, t1);
        s.ok = res->verified;
        if (!res->verified) c.errors.push_back(req.circuit.name() + ": result not verified");
        Slot& slot = slots[rank];
        const std::lock_guard<std::mutex> lock(slot.mutex);
        if (!slot.seen) {
          slot.seen = true;
          slot.qasm = out;
          slot.result = *res;
        } else if (slot.qasm != out) {
          s.ok = false;
          c.errors.push_back(req.circuit.name() + (res->from_cache ? ": cache hit" : ": re-solve") +
                             " differs from the first response");
        }
      } else {
        s.ms = ms;
        s.label = req.label;
        c.errors.push_back(req.circuit.name() + ": map threw: " + error);
      }
      if (keep) {
        c.samples.push_back(std::move(s));
        c.ranks.push_back(rank);
      } else if (!s.ok) {
        ++c.warmup_failed;
      } else {
        c.warmup_ok_ranks.push_back(rank);
      }
    }
  };

  std::vector<Caller> state(callers);
  std::vector<Draws> draws;
  for (std::size_t i = 0; i < callers; ++i) draws.emplace_back(derive(seed, 7, i));
  const auto phase = [&](double phase_seconds, bool keep) {
    const auto until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(phase_seconds));
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < callers; ++i) {
      threads.emplace_back([&, i] { drive(state[i], draws[i], until, keep); });
    }
    for (auto& t : threads) t.join();
  };

  phase(kServiceWarmupSeconds, false);
  before_timing();
  const auto t0 = Clock::now();
  phase(seconds, true);
  run.timed_s = ms_between(t0, Clock::now()) / 1000.0;

  // The full checks run once per pool entry, on the response every other
  // response for that entry was compared against.
  Checker checker;
  std::vector<std::optional<CheckOutcome>> checked(pool.size());
  for (std::size_t rank = 0; rank < pool.size(); ++rank) {
    if (slots[rank].seen) checked[rank] = checker.check(pool[rank], *slots[rank].result);
  }
  for (const Caller& c : state) {
    run.attempted += c.attempted;
    run.failed += c.warmup_failed;
    for (const std::size_t rank : c.warmup_ok_ranks) {
      if (checked[rank] && !checked[rank]->errors.empty()) ++run.failed;
    }
    run.errors.insert(run.errors.end(), c.errors.begin(), c.errors.end());
    for (std::size_t k = 0; k < c.samples.size(); ++k) {
      Sample s = c.samples[k];
      if (const auto& chk = checked[c.ranks[k]]) {
        s.optimum = chk->optimum;
        s.ok = s.ok && chk->errors.empty();
      }
      if (!s.ok) ++run.failed;
      run.samples.push_back(std::move(s));
    }
  }
  for (auto& chk : checked) {
    if (!chk) continue;
    run.errors.insert(run.errors.end(), chk->errors.begin(), chk->errors.end());
    run.checks.push_back(std::move(*chk));
  }
}

std::vector<Request> service_pool() {
  std::vector<Request> pool;
  for (std::size_t rank = 0; rank < kServicePool; ++rank) pool.push_back(service_request(rank));
  return pool;
}

/// Everything done before the first timed request; `setup` and `run` share
/// it, so set-up time is measured the same way in both.
struct Prepared {
  std::vector<Request> pool;
  std::vector<std::string> pool_qasm;
  std::map<std::string, double> setup_ms;
};

Prepared prepare(const std::string& workload) {
  Prepared p;
  if (workload == "service-mixed") {
    p.pool = service_pool();
    for (const auto& r : p.pool) p.pool_qasm.push_back(qasm::write(r.circuit));
  }
  p.setup_ms = set_up(workload);
  std::cout << "ready" << std::endl;
  return p;
}

RunResult run_workload(const std::string& workload, std::uint64_t seed, double seconds) {
  RunResult run;
  run.workload = workload;
  run.seed = seed;
  run.traced = obs::TraceRecorder::enabled();
  const Prepared prepared = prepare(workload);
  run.setup_ms = prepared.setup_ms;

  const auto before_timing = [&] {
    obs::TraceRecorder::instance().clear();
    run.registry_before = obs::MetricsRegistry::instance().json();
  };
  if (workload == "exact-qx4") {
    before_timing();
    run_single_caller(run, seconds, [&](std::size_t i) { return exact_request(seed, i); });
  } else if (workload == "heuristic-wide") {
    before_timing();
    run_single_caller(run, seconds, [&](std::size_t i) { return heuristic_request(seed, i); });
  } else {
    run_service(run, seed, seconds, prepared.pool, prepared.pool_qasm, before_timing);
  }
  run.registry_after = obs::MetricsRegistry::instance().json();
  run.peak_rss_kb = peak_rss_kb();
  return run;
}

// ---------------------------------------------------------------------------
// Self-test and input digests
// ---------------------------------------------------------------------------

/// The checker must pass an honest result and flag each tampered copy.
int selftest() {
  Checker checker;
  Request req;
  req.label = "exact";
  req.arch = &archs().qx4;
  req.circuit = bench::paper_example_circuit();
  req.options = exact_options(exact::PermutationStrategy::All, exact::CostObjective::GateCount,
                              std::chrono::milliseconds(30000));
  const auto honest = qxmap::map(req.circuit, *req.arch, req.options);

  struct Case {
    const char* name;
    bool expect_failure;
    std::function<void(exact::MappingResult&)> tamper;
  };
  const std::vector<Case> cases = {
      {"honest", false, [](exact::MappingResult&) {}},
      {"cost_below_optimum", true,
       [](exact::MappingResult& r) { r.objective_cost -= 1; }},
      {"proven_cost_above_optimum", true,
       [](exact::MappingResult& r) {
         r.objective_cost += 7;
         r.swaps_inserted += 1;
       }},
      {"cost_f_off_by_one", true, [](exact::MappingResult& r) { r.cost_f += 1; }},
      {"unverified", true, [](exact::MappingResult& r) { r.verified = false; }},
      {"cnot_against_edge", true,
       [](exact::MappingResult& r) {
         std::vector<Gate> gates = r.mapped.gates();
         for (Gate& g : gates) {
           if (g.is_cnot()) {
             std::swap(g.control, g.target);
             break;
           }
         }
         Circuit c(r.mapped.num_qubits(), r.mapped.name());
         for (Gate& g : gates) c.append(std::move(g));
         r.mapped = std::move(c);
       }},
  };
  int wrong = 0;
  for (const auto& c : cases) {
    exact::MappingResult r = honest;
    c.tamper(r);
    const auto out = checker.check(req, r);
    const bool failed = !out.errors.empty();
    const bool as_expected = failed == c.expect_failure;
    if (!as_expected) ++wrong;
    std::cout << (as_expected ? "ok   " : "FAIL ") << c.name << ": "
              << (failed ? out.errors.front() : std::string("no check failed")) << '\n';
  }
  std::cout << "selftest: " << (cases.size() - static_cast<std::size_t>(wrong)) << "/"
            << cases.size() << " as expected\n";
  return wrong == 0 ? 0 : 1;
}

std::string digest(const Request& r) {
  return r.label + " " + r.arch->name() + " " + r.circuit.name() + " " +
         api::MappingService::cache_key(r.circuit, *r.arch, r.options);
}

int print_inputs(const std::string& workload, std::uint64_t seed, std::size_t count) {
  if (workload == "exact-qx4") {
    for (std::size_t i = 0; i < count; ++i) std::cout << digest(exact_request(seed, i)) << '\n';
  } else if (workload == "heuristic-wide") {
    for (std::size_t i = 0; i < count; ++i) std::cout << digest(heuristic_request(seed, i)) << '\n';
  } else {
    for (const auto& r : service_pool()) std::cout << digest(r) << '\n';
    const Zipf zipf(kServicePool, kZipfExponent);
    Draws draws(derive(seed, 7, 0));
    for (std::size_t i = 0; i < count; ++i) std::cout << "rank " << zipf(draws) << '\n';
  }
  return 0;
}

int usage() {
  std::cerr << "usage: qxbench run|setup|inputs --workload W --seed N [--seconds S] "
               "[--report FILE] [--count K]\n"
               "       qxbench selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string report;
  std::size_t count = 50;
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") workload = value;
      else if (key == "--seed") seed = std::stoull(value);
      else if (key == "--seconds") seconds = std::stod(value);
      else if (key == "--report") report = value;
      else if (key == "--count") count = std::stoul(value);
      else return usage();
    }
    if (mode == "selftest") return selftest();
    if (workload != "exact-qx4" && workload != "heuristic-wide" && workload != "service-mixed") {
      return usage();
    }
    if (mode == "inputs") return print_inputs(workload, seed, count);
    if (mode == "setup") {
      (void)prepare(workload);
      return 0;
    }
    if (mode != "run" || seconds <= 0.0 || report.empty()) return usage();
    const RunResult run = run_workload(workload, seed, seconds);
    write_report(run, report);
    if (run.traced) {
      std::ofstream trace(report + ".trace.json");
      obs::TraceRecorder::instance().write_chrome_json(trace);
      if (!trace) throw std::runtime_error("qxbench: failed writing the trace");
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "qxbench: " << e.what() << '\n';
    return 1;
  }
}
