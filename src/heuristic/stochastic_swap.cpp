#include "heuristic/stochastic_swap.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "arch/distances.hpp"
#include "arch/swap_cost_cache.hpp"
#include "common/rng.hpp"
#include "exact/swap_synthesis.hpp"
#include "ir/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::heuristic {

namespace {

using Clock = std::chrono::steady_clock;

/// All CNOTs of `gates` executable (coupled in some direction) under layout?
bool layer_executable(const std::vector<int>& layout, const std::vector<Gate>& gates,
                      const arch::CouplingMap& cm) {
  return std::all_of(gates.begin(), gates.end(), [&](const Gate& g) {
    return !g.is_cnot() || cm.coupled(layout[static_cast<std::size_t>(g.control)],
                                      layout[static_cast<std::size_t>(g.target)]);
  });
}

/// Buffers shared by every trial of one map, sized once so the trial and
/// candidate loops allocate nothing.
struct TrialScratch {
  TrialScratch(const arch::CouplingMap& cm, const arch::DistanceMatrix& dist)
      : m(cm.num_physical()),
        hops(static_cast<std::size_t>(m) * static_cast<std::size_t>(m)),
        draws(hops.size()),
        owner(static_cast<std::size_t>(m), -1) {
    for (int u = 0; u < m; ++u) {
      for (int v = 0; v < m; ++v) hops[at(u, v)] = dist.hops(u, v);
    }
  }

  [[nodiscard]] std::size_t at(int u, int v) const {
    return static_cast<std::size_t>(u) * static_cast<std::size_t>(m) + static_cast<std::size_t>(v);
  }

  /// Perturbed squared distance of the current trial (multiplicative noise,
  /// as in the original randomized algorithm). Only the entries a trial
  /// reads are converted from their draws.
  [[nodiscard]] double xi(int u, int v) const {
    const double d = hops[at(u, v)];
    const double noise = 1.0 + 0.2 * (Rng::to_double(draws[at(u, v)]) - 0.5);
    return noise * d * d;
  }

  int m;
  std::vector<double> hops;                // m*m hop counts, built once per map
  std::vector<std::uint64_t> draws;        // m*m noise draws of the current trial
  std::vector<int> layout;                 // logical -> physical of the current trial
  std::vector<int> owner;                  // physical -> index of the pair placed there, or -1
  std::vector<double> terms;               // terms[k] = xi of pair k under `layout`
  std::vector<double> prefix;              // prefix[k] = ordered sum of terms[0..k)
  std::vector<std::pair<int, int>> swaps;  // SWAP edges of the current trial
};

/// One randomized greedy trial (the core of Qiskit 0.4's layer_permutation):
/// leaves in `s.swaps` a SWAP edge list making all `pairs` adjacent and
/// returns true, or returns false.
///
/// The layout cost is the sum of the pairs' terms in pair order. A candidate
/// SWAP is scored by re-adding that sum from its first changed term on, so
/// every score is bitwise the full rescan of the swapped layout. The pairs
/// act on distinct logical qubits, so a SWAP changes at most two terms; one
/// that touches no paired qubit keeps the incumbent's cost exactly and the
/// strict `<` can never pick it, so it is skipped.
bool trial_search(const std::vector<std::pair<int, int>>& pairs,
                  const std::vector<int>& start_layout, const arch::CouplingMap& cm,
                  TrialScratch& s, Rng& rng) {
  const int m = s.m;
  // One noise draw per ordered physical pair, in row-major order.
  for (auto& draw : s.draws) draw = rng.next_u64();

  const int p = static_cast<int>(pairs.size());
  const auto phys = [&](int q) { return s.layout[static_cast<std::size_t>(q)]; };
  s.layout = start_layout;
  s.terms.resize(static_cast<std::size_t>(p));
  s.prefix.resize(static_cast<std::size_t>(p) + 1);
  for (int k = 0; k < p; ++k) {
    s.owner[static_cast<std::size_t>(phys(pairs[static_cast<std::size_t>(k)].first))] = k;
    s.owner[static_cast<std::size_t>(phys(pairs[static_cast<std::size_t>(k)].second))] = k;
  }
  const auto rescore = [&] {
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      s.terms[k] = s.xi(phys(pairs[k].first), phys(pairs[k].second));
      s.prefix[k + 1] = s.prefix[k] + s.terms[k];
    }
  };
  const auto done = [&] {
    return std::all_of(pairs.begin(), pairs.end(), [&](const auto& pr) {
      return s.hops[s.at(phys(pr.first), phys(pr.second))] == 1.0;
    });
  };
  const auto finish = [&](bool found) {
    for (const auto& [qc, qt] : pairs) {
      s.owner[static_cast<std::size_t>(phys(qc))] = -1;
      s.owner[static_cast<std::size_t>(phys(qt))] = -1;
    }
    return found;
  };

  s.swaps.clear();
  s.prefix[0] = 0;
  rescore();
  const int max_steps = 2 * m * m;
  for (int step = 0; step < max_steps; ++step) {
    if (done()) return finish(true);
    double best_cost = s.prefix[static_cast<std::size_t>(p)];
    std::pair<int, int> best_edge{-1, -1};
    for (const auto& [a, b] : cm.undirected_edges()) {
      const int ka = s.owner[static_cast<std::size_t>(a)];
      const int kb = s.owner[static_cast<std::size_t>(b)];
      if (ka < 0 && kb < 0) continue;
      const auto moved = [a = a, b = b](int x) { return x == a ? b : (x == b ? a : x); };
      const int first = ka < 0 ? kb : (kb < 0 ? ka : std::min(ka, kb));
      double c = s.prefix[static_cast<std::size_t>(first)];
      for (int k = first; k < p; ++k) {
        const auto& [qc, qt] = pairs[static_cast<std::size_t>(k)];
        c += (k == ka || k == kb) ? s.xi(moved(phys(qc)), moved(phys(qt)))
                                  : s.terms[static_cast<std::size_t>(k)];
      }
      if (c < best_cost) {
        best_cost = c;
        best_edge = {a, b};
      }
    }
    if (best_edge.first < 0) return finish(false);  // local minimum: trial failed
    const auto [a, b] = best_edge;
    s.swaps.push_back(best_edge);
    for (auto& q : s.layout) {
      if (q == a) {
        q = b;
      } else if (q == b) {
        q = a;
      }
    }
    std::swap(s.owner[static_cast<std::size_t>(a)], s.owner[static_cast<std::size_t>(b)]);
    rescore();
  }
  return finish(false);
}

/// Deterministic fallback for a single blocked CNOT: walk the control along
/// a shortest path until adjacent to the target.
std::vector<std::pair<int, int>> route_single(const std::vector<int>& layout, int qc, int qt,
                                              const arch::CouplingMap& cm,
                                              const arch::DistanceMatrix& dist) {
  std::vector<int> lay = layout;
  std::vector<std::pair<int, int>> swaps;
  while (!cm.coupled(lay[static_cast<std::size_t>(qc)], lay[static_cast<std::size_t>(qt)])) {
    const int pc = lay[static_cast<std::size_t>(qc)];
    const int pt = lay[static_cast<std::size_t>(qt)];
    // Move pc to the neighbour closest to pt.
    int best_nb = -1;
    int best_d = dist.hops(pc, pt);
    for (const int nb : cm.neighbours(pc)) {
      if (dist.hops(nb, pt) < best_d) {
        best_d = dist.hops(nb, pt);
        best_nb = nb;
      }
    }
    if (best_nb < 0) throw std::logic_error("route_single: no progress possible");
    swaps.emplace_back(pc, best_nb);
    for (auto& p : lay) {
      if (p == pc) {
        p = best_nb;
      } else if (p == best_nb) {
        p = pc;
      }
    }
  }
  return swaps;
}

/// Routes + emits one group of gates (a layer or a serialized single gate).
void process_group(exact::RouteBuilder& route, const std::vector<Gate>& gates,
                   const arch::CouplingMap& cm, const arch::DistanceMatrix& dist,
                   TrialScratch& scratch, Rng& rng, int trials) {
  std::vector<std::pair<int, int>> pairs;
  for (const auto& g : gates) {
    if (g.is_cnot()) pairs.emplace_back(g.control, g.target);
  }
  if (!pairs.empty() && !layer_executable(route.layout(), gates, cm)) {
    bool found = false;
    std::vector<std::pair<int, int>> best;
    for (int t = 0; t < trials; ++t) {
      if (trial_search(pairs, route.layout(), cm, scratch, rng) &&
          (!found || scratch.swaps.size() < best.size())) {
        std::swap(best, scratch.swaps);
        found = true;
      }
    }
    if (!found && pairs.size() > 1) {
      // Serialize the layer: route and emit gate by gate.
      for (const auto& g : gates) process_group(route, {g}, cm, dist, scratch, rng, trials);
      return;
    }
    if (!found) best = route_single(route.layout(), pairs[0].first, pairs[0].second, cm, dist);
    for (const auto& [a, b] : best) route.swap(a, b);
  }
  for (const auto& g : gates) route.gate(g);
}

}  // namespace

exact::MappingResult map_stochastic_swap(const Circuit& circuit, const arch::CouplingMap& cm,
                                         const StochasticSwapOptions& options) {
  const auto start = Clock::now();
  const int n = circuit.num_qubits();
  const int m = cm.num_physical();
  if (n > m) {
    throw std::invalid_argument("map_stochastic_swap: circuit larger than architecture");
  }
  if (!cm.is_connected()) {
    throw std::invalid_argument("map_stochastic_swap: coupling graph must be connected");
  }
  if (circuit.counts().swap > 0) {
    // Raw swap pseudo-gates in the *input* are decomposed here (Fig. 3 form)
    // and their elementary gates routed like any others.
    return map_stochastic_swap(circuit.with_swaps_expanded(), cm, options);
  }
  if (options.trials < 1 || options.runs < 1) {
    throw std::invalid_argument("map_stochastic_swap: trials and runs must be >= 1");
  }

  obs::Span span("heuristic.stochastic_swap", "heuristic");
  span.attr("circuit", circuit.name());
  span.attr("runs", static_cast<long long>(options.runs));
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_heuristic_maps_total", "Heuristic mapper invocations (all algorithms)");
  maps_total.inc();

  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  const arch::DistanceMatrix& dist = *dist_handle;
  const exact::CostModel costs = options.costs.resolved(cm);
  const auto layers = asap_layers(circuit);

  std::optional<exact::RouteBuilder> best;
  TrialScratch scratch(cm, dist);
  Rng rng(options.seed);
  for (int run = 0; run < options.runs; ++run) {
    obs::Span iter("heuristic.iteration", "heuristic");
    iter.attr("run", static_cast<long long>(run));
    exact::RouteBuilder route(circuit, cm);  // trivial layout
    for (const auto& layer : layers) {
      std::vector<Gate> gates;
      gates.reserve(layer.size());
      for (const std::size_t gi : layer) gates.push_back(circuit.gate(gi));
      process_group(route, gates, cm, dist, scratch, rng, options.trials);
    }
    const long long cost = costs.result_cost(route.swaps(), route.reversed());
    iter.attr("cost", cost);
    // Best-of-runs selection under the requested objective (ties keep the
    // earlier run, so single-run results are unchanged).
    if (!best || cost < costs.result_cost(best->swaps(), best->reversed())) best = std::move(route);
  }

  exact::MappingResult res = std::move(*best).finish(costs, options.verify);
  res.engine_name = "qiskit-stochastic";
  res.status = reason::Status::Feasible;
  res.instances_solved = options.runs;
  res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return res;
}

}  // namespace qxmap::heuristic
