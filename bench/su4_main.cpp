/// \file su4_main.cpp
/// SU(4) stress gate for the large-architecture path: generator → heavy-hex
/// coupling map → SABRE, end to end.
///
/// Usage: bench_su4 [--smoke] [--sweep] [--arch NAME] [--layers N]
///                  [--seed N] [--budget-ms N] [--json PATH]
///   --smoke       CI mode: a seeded SU(4) instance over the full
///                 architecture (default hex27, 27 qubits) must map via
///                 SABRE within --budget-ms, with a coupling-legal mapped
///                 circuit and a GF(2)-verified routing skeleton — under
///                 BOTH cost objectives
///                 (gate_count and error_weighted); exit 1 otherwise
///   --sweep       print a SABRE table over the heavy-hex built-ins
///                 (hex27/65/127 x 2/4 layers), asserting legality and
///                 GF(2) verification on every row
///   --arch NAME   architecture for --smoke (default hex27)
///   --layers N    SU(4) layers (default 3)
///   --seed N      generator seed (default 7)
///   --budget-ms N smoke wall-clock budget (default 60000 — generous so the
///                 TSan matrix entry passes; the real run is milliseconds)
///   --json PATH   write the smoke rows as JSON with the shared environment
///                 meta header (bench/bench_meta.hpp: threads, Z3 on/off,
///                 build type, budget)
///
/// Like bench_sat_smoke this is a plain CLI — no Google Benchmark
/// dependency — so the test build can register it in the quick gate.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_meta.hpp"
#include "common/strings.hpp"
#include "exact/swap_synthesis.hpp"
#include "heuristic/sabre_mapper.hpp"

namespace {

using namespace qxmap;
using Clock = std::chrono::steady_clock;

struct Args {
  bool smoke = false;
  bool sweep = false;
  std::string arch = "hex27";
  int layers = 3;
  std::uint64_t seed = 7;
  long long budget_ms = 60000;
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("bench_su4: missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--sweep") {
      a.sweep = true;
    } else if (arg == "--arch") {
      a.arch = next();
    } else if (arg == "--layers") {
      a.layers = std::stoi(next());
    } else if (arg == "--seed") {
      a.seed = static_cast<std::uint64_t>(std::stoull(next()));
    } else if (arg == "--budget-ms") {
      a.budget_ms = std::stoll(next());
    } else if (arg == "--json") {
      a.json_path = next();
    } else {
      throw std::runtime_error("bench_su4: unknown argument " + arg);
    }
  }
  return a;
}

/// Maps one SU(4) instance with SABRE and validates the
/// result; returns false (after printing why) on any violation.
bool check_instance(const Circuit& circuit, const arch::CouplingMap& cm,
                    exact::CostObjective objective, double* out_ms,
                    exact::MappingResult* out = nullptr) {
  heuristic::SabreOptions options;
  options.costs.objective = objective;
  const auto t0 = Clock::now();
  const exact::MappingResult res = heuristic::map_sabre(circuit, cm, options);
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (out_ms != nullptr) *out_ms = ms;
  bool ok = true;
  if (res.status != reason::Status::Feasible) {
    std::cout << "FAIL: status not Feasible on " << cm.name() << "\n";
    ok = false;
  }
  if (!res.verified) {
    std::cout << "FAIL: GF(2) skeleton verification failed on " << cm.name() << " ("
              << res.verify_message << ")\n";
    ok = false;
  }
  if (!exact::satisfies_coupling(res.mapped, cm)) {
    std::cout << "FAIL: mapped circuit violates the coupling map of " << cm.name() << "\n";
    ok = false;
  }
  if (res.objective != exact::to_string(objective)) {
    std::cout << "FAIL: result reports objective '" << res.objective << "', requested '"
              << exact::to_string(objective) << "'\n";
    ok = false;
  }
  if (out != nullptr) *out = res;
  return ok;
}

int run_smoke(const Args& args) {
  const arch::CouplingMap cm = arch::by_name(args.arch);
  const Circuit circuit =
      bench::su4_random_circuit(cm.num_physical(), args.layers, args.seed,
                                "su4_" + cm.name());
  std::cout << "bench_su4 --smoke: " << circuit.size() << " gates ("
            << circuit.counts().cnot << " CNOTs), architecture " << cm.name() << " ("
            << cm.num_physical() << " qubits)\n";
  bool ok = true;
  double total_ms = 0.0;
  struct JsonRow {
    std::string objective;
    int swaps = 0;
    int reversed = 0;
    long long objective_cost = 0;
    double wall_ms = 0.0;
  };
  std::vector<JsonRow> json_rows;
  for (const auto objective :
       {exact::CostObjective::GateCount, exact::CostObjective::ErrorWeighted}) {
    double ms = 0.0;
    exact::MappingResult res;
    ok = check_instance(circuit, cm, objective, &ms, &res) && ok;
    total_ms += ms;
    std::cout << "  " << pad_right(exact::to_string(objective), 15) << " swaps "
              << pad_left(std::to_string(res.swaps_inserted), 4) << ", reversed "
              << pad_left(std::to_string(res.cnots_reversed), 4) << ", objective_cost "
              << pad_left(std::to_string(res.objective_cost), 7) << ", "
              << format_fixed(ms, 1) << " ms\n";
    json_rows.push_back({exact::to_string(objective), res.swaps_inserted, res.cnots_reversed,
                         res.objective_cost, ms});
  }
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::cout << "FAIL: cannot open " << args.json_path << " for writing\n";
      ok = false;
    } else {
      out << "{\n"
          << "  \"schema\": \"qxmap-su4-smoke-v1\",\n"
          << "  \"arch\": \"" << cm.name() << "\",\n"
          << "  \"layers\": " << args.layers << ",\n"
          << "  \"seed\": " << args.seed << ",\n";
      bench::write_meta_json(out, args.budget_ms);
      out << ",\n  \"rows\": [\n";
      for (std::size_t i = 0; i < json_rows.size(); ++i) {
        const auto& r = json_rows[i];
        out << "    {\"objective\": \"" << r.objective << "\", \"swaps\": " << r.swaps
            << ", \"reversed\": " << r.reversed << ", \"objective_cost\": " << r.objective_cost
            << ", \"wall_ms\": " << format_fixed(r.wall_ms, 1) << '}'
            << (i + 1 < json_rows.size() ? "," : "") << '\n';
      }
      out << "  ]\n}\n";
      std::cout << "wrote " << args.json_path << " (" << json_rows.size() << " rows)\n";
    }
  }
  if (total_ms > static_cast<double>(args.budget_ms)) {
    std::cout << "FAIL: " << format_fixed(total_ms, 1) << " ms exceeds the --budget-ms "
              << args.budget_ms << "\n";
    ok = false;
  }
  std::cout << (ok ? "OK" : "FAILED") << ": generator + SABRE on " << cm.name()
            << " in " << format_fixed(total_ms, 1) << " ms (budget " << args.budget_ms
            << " ms)\n";
  return ok ? 0 : 1;
}

int run_sweep(const Args& args) {
  bool ok = true;
  std::cout << pad_right("arch", 10) << pad_left("layers", 7) << pad_left("cnots", 7)
            << pad_left("swaps", 7) << pad_left("ms", 8) << '\n';
  for (const std::string& name : {std::string("hex27"), std::string("hex65"),
                                  std::string("hex127")}) {
    const arch::CouplingMap cm = arch::by_name(name);
    for (const int layers : {2, 4}) {
      const Circuit circuit = bench::su4_random_circuit(cm.num_physical(), layers, args.seed,
                                                        "su4_" + cm.name());
      double ms = 0.0;
      exact::MappingResult res;
      ok = check_instance(circuit, cm, exact::CostObjective::GateCount, &ms, &res) && ok;
      std::cout << pad_right(name, 10) << pad_left(std::to_string(layers), 7)
                << pad_left(std::to_string(circuit.counts().cnot), 7)
                << pad_left(std::to_string(res.swaps_inserted), 7)
                << pad_left(format_fixed(ms, 1), 8) << '\n';
    }
  }
  std::cout << (ok ? "OK" : "FAILED") << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.sweep) return run_sweep(args);
    if (args.smoke) return run_smoke(args);
    // Default: one verbose smoke run.
    return run_smoke(args);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}
