/// Table 1 reproduction harness.
///
/// Regenerates every column of the paper's Table 1 on the synthetic
/// Table-1 workload suite (same n / #1q / #CNOT per benchmark; see
/// DESIGN.md for the substitution note):
///
///   * original cost                      — #1q + #CNOT before mapping
///   * cmin, t                            — exact method, Sec. 3 (full m = 5)
///   * subsets: c (Δmin), t               — Sec. 4.1
///   * disjoint / odd / triangle columns  — Sec. 4.2 (|G'|, c (Δmin), t)
///   * IBM-style heuristic: c (Δmin)      — Qiskit 0.4 reimplementation,
///                                          best of 5 runs (paper protocol)
///
/// A DP certifier (exact/reference_search) provides the ground-truth
/// minimum independently of the reasoning engines, so Δmin is exact even
/// when a SAT run hits its per-instance budget (such entries are marked
/// with '*'). The paper's own cmin / IBM numbers are printed alongside for
/// shape comparison. Summary lines reproduce the headline claims (average
/// overhead of the heuristic vs. the minimum, in total gates and in added
/// gates).
///
/// Usage: table1 [--budget-ms N] [--engine z3|cdcl] [--max-cnots N]
///               [--benchmark NAME] [--skip-min] [--json PATH]
///
/// `--json PATH` additionally writes the tracked performance baseline
/// (BENCH_table1.json at the repo root): one row per benchmark with the
/// Sec. 4.1 subsets configuration — row schema {circuit, arch, cost,
/// wall_ms, proven}, under top-level {schema, method, engine, budget_ms,
/// meta} (meta: environment header, see bench/bench_meta.hpp).

#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/qxmap.hpp"
#include "arch/swap_costs.hpp"
#include "bench_meta.hpp"
#include "bench_circuits/table1_suite.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "exact/reference_search.hpp"
#include "exact/strategies.hpp"

namespace {

using namespace qxmap;

struct Config {
  long long budget_ms = 5000;
  // The paper used Z3 (--engine z3); the library's own CDCL backend proved
  // roughly an order of magnitude faster on these instances and is the
  // default for the shipped harness (see EXPERIMENTS.md).
  reason::EngineKind engine = reason::EngineKind::Cdcl;
  int max_cnots = 1000;
  std::optional<std::string> only;
  bool skip_min = false;
  std::optional<std::string> json_path;
};

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--budget-ms") {
      cfg.budget_ms = std::stoll(next());
    } else if (arg == "--engine") {
      const std::string v = next();
      cfg.engine = (v == "cdcl") ? reason::EngineKind::Cdcl : reason::EngineKind::Z3;
    } else if (arg == "--max-cnots") {
      cfg.max_cnots = std::stoi(next());
    } else if (arg == "--benchmark") {
      cfg.only = next();
    } else if (arg == "--skip-min") {
      cfg.skip_min = true;
    } else if (arg == "--json") {
      cfg.json_path = next();
    } else {
      std::cerr << "unknown argument: " << arg << '\n';
      std::exit(2);
    }
  }
  return cfg;
}

struct Cell {
  long long c = -1;       // mapped total cost (gate count)
  double seconds = 0.0;
  bool proven = false;    // engine proved optimality under its restriction
  int points = 0;         // |G'| + 1
};

std::string fmt_cell(const Cell& cell, long long certified_cmin) {
  if (cell.c < 0) return "      --      ";
  std::string s = std::to_string(cell.c);
  s += " (+";
  s += std::to_string(cell.c - certified_cmin);
  s += ')';
  if (!cell.proven) s += '*';
  s += ' ';
  s += format_fixed(cell.seconds, 1);
  s += 's';
  return s;
}

Cell run_exact(const Circuit& circuit, const exact::ExactOptions& opt) {
  Cell cell;
  try {
    const auto res = exact::map_exact(circuit, arch::ibm_qx4(), opt);
    if (res.status == reason::Status::Optimal || res.status == reason::Status::Feasible) {
      cell.c = static_cast<long long>(res.mapped.size());
      cell.proven = res.status == reason::Status::Optimal;
      cell.points = res.permutation_points;
    }
    cell.seconds = res.seconds;
  } catch (const std::exception& e) {
    std::cerr << "  [exact run failed: " << e.what() << "]\n";
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);

  std::cout << "Table 1 — mapping the benchmark suite to IBM QX4 (engine: "
            << reason::to_string(cfg.engine) << ", budget " << cfg.budget_ms
            << " ms per solve; '*' = budget hit, best found shown)\n"
            << "Workloads are synthetic re-generations with the paper's exact gate counts;\n"
            << "'paper' columns quote Wille/Burgholzer/Zulehner DAC'19 for shape comparison.\n\n";

  std::cout << pad_right("benchmark", 13) << pad_left("n", 3) << pad_left("orig", 6)
            << pad_left("cmin(DP)", 10) << pad_left("min(Sec3)", 17)
            << pad_left("subsets(4.1)", 17) << pad_left("disjoint", 20) << pad_left("odd", 20)
            << pad_left("triangle", 20) << pad_left("IBM-style", 12)
            << pad_left("paper cmin", 12) << pad_left("paper IBM", 11) << '\n';

  double sum_heur_total_ratio = 0.0;
  double sum_heur_added_ratio = 0.0;
  int count_added = 0;
  int rows = 0;

  struct JsonRow {
    std::string circuit;
    long long cost = -1;
    double wall_ms = 0.0;
    bool proven = false;
  };
  std::vector<JsonRow> json_rows;

  for (const auto& b : bench::table1_benchmarks()) {
    if (cfg.only && b.name != *cfg.only) continue;
    if (b.cnot > cfg.max_cnots) continue;
    const Circuit circuit = b.build();
    const long long original = b.original_cost();

    // Ground truth minimum via the DP certifier (always fast at m = 5).
    std::vector<Gate> cnots;
    for (const auto& g : circuit) {
      if (g.is_cnot()) cnots.push_back(g);
    }
    std::vector<std::size_t> all_points;
    for (std::size_t k = 1; k < cnots.size(); ++k) all_points.push_back(k);
    exact::CostModel costs;
    costs.swap_cost = 7;
    const auto ref =
        exact::minimal_cost_reference(cnots, b.n, arch::ibm_qx4(), all_points, costs);
    const long long cmin = original + ref.cost_f;

    exact::ExactOptions base;
    base.engine = cfg.engine;
    base.budget = std::chrono::milliseconds(cfg.budget_ms);

    Cell min_cell;
    if (!cfg.skip_min) min_cell = run_exact(circuit, base);

    auto subset_opt = base;
    subset_opt.use_subsets = true;
    const Cell subset_cell = run_exact(circuit, subset_opt);
    json_rows.push_back(
        {b.name, subset_cell.c, subset_cell.seconds * 1000.0, subset_cell.proven});

    const auto strategy_cell = [&](exact::PermutationStrategy s) {
      auto opt = base;
      opt.strategy = s;
      opt.use_subsets = true;  // strategies compose with Sec. 4.1
      return run_exact(circuit, opt);
    };
    const Cell disjoint = strategy_cell(exact::PermutationStrategy::DisjointQubits);
    const Cell odd = strategy_cell(exact::PermutationStrategy::OddGates);
    const Cell triangle = strategy_cell(exact::PermutationStrategy::QubitTriangle);

    heuristic::StochasticSwapOptions sopt;
    sopt.seed = Rng::seed_from_string(b.name);
    sopt.runs = 5;  // the paper's protocol: 5 runs, best kept
    const auto heur = heuristic::map_stochastic_swap(circuit, arch::ibm_qx4(), sopt);
    const long long heur_c = static_cast<long long>(heur.mapped.size());

    const auto fmt_strategy = [&](const Cell& cell) {
      if (cell.c < 0) return pad_left("--", 20);
      return pad_left("|G'|=" + std::to_string(cell.points) + " " + fmt_cell(cell, cmin), 20);
    };

    std::cout << pad_right(b.name, 13) << pad_left(std::to_string(b.n), 3)
              << pad_left(std::to_string(original), 6) << pad_left(std::to_string(cmin), 10)
              << pad_left(fmt_cell(min_cell, cmin), 17)
              << pad_left(fmt_cell(subset_cell, cmin), 17) << fmt_strategy(disjoint)
              << fmt_strategy(odd) << fmt_strategy(triangle)
              << pad_left(std::to_string(heur_c) + " (+" + std::to_string(heur_c - cmin) + ")",
                          12)
              << pad_left(std::to_string(b.paper_cmin), 12)
              << pad_left(std::to_string(b.paper_ibm), 11) << '\n';

    sum_heur_total_ratio += static_cast<double>(heur_c - cmin) / static_cast<double>(cmin);
    if (ref.cost_f > 0) {
      sum_heur_added_ratio +=
          static_cast<double>(heur_c - original - ref.cost_f) / static_cast<double>(ref.cost_f);
      ++count_added;
    }
    ++rows;
  }

  if (cfg.json_path) {
    std::ofstream out(*cfg.json_path);
    if (!out) {
      std::cerr << "cannot open " << *cfg.json_path << " for writing\n";
      return 1;
    }
    out << "{\n"
        << "  \"schema\": \"qxmap-table1-baseline-v1\",\n"
        << "  \"method\": \"exact + subsets (Sec. 4.1)\",\n"
        << "  \"engine\": \"" << reason::to_string(cfg.engine) << "\",\n"
        << "  \"budget_ms\": " << cfg.budget_ms << ",\n";
    // Informational environment header; top-level fields above stay first
    // so bench_sat_smoke's first-occurrence scanner keeps finding them.
    bench::write_meta_json(out, cfg.budget_ms);
    out << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const auto& r = json_rows[i];
      out << "    {\"circuit\": \"" << r.circuit << "\", \"arch\": \"ibm_qx4\", \"cost\": "
          << r.cost << ", \"wall_ms\": " << format_fixed(r.wall_ms, 1)
          << ", \"proven\": " << (r.proven ? "true" : "false") << '}'
          << (i + 1 < json_rows.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote baseline: " << *cfg.json_path << " (" << json_rows.size()
              << " rows)\n";
  }

  if (rows > 0) {
    std::cout << "\nSummary over " << rows << " benchmarks:\n";
    std::cout << "  IBM-style heuristic vs. minimum, total gate count: +"
              << format_fixed(100.0 * sum_heur_total_ratio / rows, 1) << "% on average (paper: +45%)\n";
    if (count_added > 0) {
      std::cout << "  IBM-style heuristic vs. minimum, added gates only: +"
                << format_fixed(100.0 * sum_heur_added_ratio / count_added, 1)
                << "% on average (paper: +104%)\n";
    }
  }
  return 0;
}
