/// \file sat_smoke_main.cpp
/// SAT regression smoke gate: re-proves the `proven: true` rows of the
/// committed BENCH_table1.json at the committed budget and fails (exit 1)
/// if any of them no longer proves or any proven cost drifts. Proven costs
/// are deterministic (docs/benchmarks.md), so a drift is a correctness
/// event; a lost proof is a solver-performance regression. Every returned
/// objective, proven or not, is also checked against the in-tree DP oracle
/// (exact/reference_search.hpp): a wrong `proven` verdict fails the gate
/// even when it repeats the baseline cost, and an unproven answer below the
/// optimum is named as a wrong result rather than a lost proof.
///
/// Usage: bench_sat_smoke [--baseline PATH] [--budget-ms N]
///   --baseline PATH BENCH_table1.json to check against (default:
///                   ./BENCH_table1.json)
///   --budget-ms N   override the per-solve budget (default: the baseline
///                   file's budget_ms)
///
/// Unlike the bench_* suites this is a plain CLI (no Google-Benchmark
/// dependency) so the quick CI gate can run it from the test build.

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "arch/subsets.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "exact/exact_mapper.hpp"
#include "exact/reference_search.hpp"
#include "exact/strategies.hpp"
#include "reason/engine.hpp"

namespace {

using namespace qxmap;

struct BaselineRow {
  std::string circuit;
  long long cost = -1;
  bool proven = false;
};

struct Baseline {
  long long budget_ms = 3000;
  std::vector<BaselineRow> rows;
};

/// Pulls `"key": <value>` out of one JSON row object. The baseline file is
/// machine-written by table1 with a fixed layout, so a targeted scan is
/// enough — no general JSON parser needed.
std::string field(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return {};
  std::size_t begin = at + needle.size();
  while (begin < obj.size() && obj[begin] == ' ') ++begin;
  std::size_t end = begin;
  if (obj[begin] == '"') {
    end = obj.find('"', begin + 1);
    return obj.substr(begin + 1, end - begin - 1);
  }
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
  return obj.substr(begin, end - begin);
}

Baseline load_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("bench_sat_smoke: cannot open baseline: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  Baseline b;
  const std::string budget = field(text, "budget_ms");
  if (!budget.empty()) b.budget_ms = std::stoll(budget);

  // Row objects all live inside the "rows" array; scan its {...} groups.
  std::size_t pos = text.find("\"rows\"");
  if (pos == std::string::npos) throw std::runtime_error("bench_sat_smoke: no rows in " + path);
  while ((pos = text.find('{', pos)) != std::string::npos) {
    const std::size_t close = text.find('}', pos);
    if (close == std::string::npos) break;
    const std::string obj = text.substr(pos, close - pos + 1);
    BaselineRow row;
    row.circuit = field(obj, "circuit");
    const std::string cost = field(obj, "cost");
    if (!cost.empty()) row.cost = std::stoll(cost);
    row.proven = field(obj, "proven") == "true";
    if (!row.circuit.empty()) b.rows.push_back(std::move(row));
    pos = close + 1;
  }
  return b;
}

/// Checks an objective against the DP oracle, an independent code path. A
/// proven objective must equal the optimum over the connected n-subsets the
/// mapper solved (Sec. 4.1); an unproven one is an upper bound and must not
/// lie below it. Neither can beat the full-architecture optimum. Returns
/// what failed, or an empty string.
std::string dp_check(const Circuit& circuit, const arch::CouplingMap& cm,
                     const exact::ExactOptions& opt, long long objective, bool proven) {
  std::vector<Gate> cnots;
  for (const Gate& g : circuit) {
    if (g.is_cnot()) cnots.push_back(g);
  }
  const int n = circuit.num_qubits();
  const exact::CostModel costs = opt.costs.resolved(cm);
  const auto points = exact::permutation_points(cnots, opt.strategy, cm);
  long long subset_best = -1;
  for (const auto& subset : arch::connected_subsets(cm, n)) {
    const auto r = exact::minimal_cost_reference(cnots, n, cm.induced(subset), points, costs);
    if (r.feasible && (subset_best < 0 || r.cost_f < subset_best)) subset_best = r.cost_f;
  }
  const auto full = exact::minimal_cost_reference(cnots, n, cm, points, costs);
  if (proven ? objective != subset_best : objective < subset_best) {
    return "objective " + std::to_string(objective) + (proven ? " != " : " < ") +
           "subset DP optimum " + std::to_string(subset_best);
  }
  if (!full.feasible) return "the full-architecture DP finds no mapping";
  if (objective < full.cost_f) {
    return "objective " + std::to_string(objective) + " beats the full-architecture DP optimum " +
           std::to_string(full.cost_f);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path = "BENCH_table1.json";
  long long budget_ms = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--budget-ms" && i + 1 < argc) {
      budget_ms = std::stoll(argv[++i]);
    } else {
      std::cerr << "bench_sat_smoke: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  Baseline baseline;
  try {
    baseline = load_baseline(baseline_path);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (budget_ms <= 0) budget_ms = baseline.budget_ms;

  exact::ExactOptions opt;
  opt.engine = reason::EngineKind::Cdcl;
  opt.use_subsets = true;
  opt.budget = std::chrono::milliseconds(budget_ms);

  int checked = 0;
  int failed = 0;
  for (const auto& row : baseline.rows) {
    if (!row.proven) continue;  // budget-bound rows are timing-dependent
    ++checked;
    const Circuit circuit = bench::table1_benchmark(row.circuit).build();
    const arch::CouplingMap cm = arch::ibm_qx4();
    const auto res = exact::map_exact(circuit, cm, opt);
    const bool proven = res.status == reason::Status::Optimal;
    const bool mapped = proven || res.status == reason::Status::Feasible;
    const auto cost = static_cast<long long>(res.mapped.size());
    const std::string dp_error =
        mapped ? dp_check(circuit, cm, opt, res.objective_cost, proven) : "";
    const bool ok = proven && cost == row.cost && dp_error.empty();
    std::cout << (ok ? "  ok   " : "  FAIL ") << row.circuit << ": cost " << cost << " (baseline "
              << row.cost << "), " << (proven ? "proven" : "NOT proven") << ", "
              << (!mapped ? std::string("no mapping, DP skipped")
                  : dp_error.empty() ? std::string("DP ok") : "DP: " + dp_error)
              << ", " << static_cast<long long>(res.seconds * 1000.0) << " ms\n";
    if (!ok) ++failed;
  }

  std::cout << "bench_sat_smoke: " << (checked - failed) << "/" << checked
            << " proven baseline rows re-proved at " << budget_ms << " ms\n";
  return failed == 0 ? 0 : 1;
}
