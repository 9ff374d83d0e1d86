#include "heuristic/sabre_mapper.hpp"

#include <algorithm>
#include <stdexcept>

#include "arch/distances.hpp"
#include "arch/swap_cost_cache.hpp"
#include "common/rng.hpp"
#include "exact/swap_synthesis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::heuristic {

namespace {

using Clock = std::chrono::steady_clock;

/// Dependency bookkeeping over the gate list: a gate becomes available once
/// the previous gate on each of its qubits has been scheduled.
struct Dag {
  explicit Dag(const Circuit& c) : circuit(&c) {
    const auto n = static_cast<std::size_t>(c.num_qubits());
    std::vector<int> last(n, -1);
    preds.assign(c.size(), 0);
    succs.assign(c.size(), {});
    for (std::size_t gi = 0; gi < c.size(); ++gi) {
      for (const int q : c.gate(gi).qubits()) {
        if (last[static_cast<std::size_t>(q)] >= 0) {
          succs[static_cast<std::size_t>(last[static_cast<std::size_t>(q)])].push_back(gi);
          ++preds[gi];
        }
        last[static_cast<std::size_t>(q)] = static_cast<int>(gi);
      }
    }
  }

  const Circuit* circuit;
  std::vector<int> preds;
  std::vector<std::vector<std::size_t>> succs;
};

/// Undirected hop counts of `dist` as one flat m*m table, read through the
/// checked DistanceMatrix::hops() once per map.
std::vector<int> hop_table(const arch::DistanceMatrix& dist) {
  const int m = dist.size();
  std::vector<int> hops;
  hops.reserve(static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
  for (int u = 0; u < m; ++u) {
    for (int v = 0; v < m; ++v) hops.push_back(dist.hops(u, v));
  }
  return hops;
}

/// One routing pass from `layout`; returns the final layout. When `route`
/// is non-null, the pass emits its gates and SWAPs through it; otherwise
/// only the layout evolves (the bidirectional warm-up passes).
std::vector<int> run_pass(const Dag& dag, const arch::CouplingMap& cm,
                          const std::vector<int>& hops, const SabreOptions& opt,
                          std::vector<int> layout, Rng& rng, exact::RouteBuilder* route) {
  const Circuit& circuit = *dag.circuit;
  const int m = cm.num_physical();

  std::vector<int> preds = dag.preds;
  std::vector<std::size_t> front;
  for (std::size_t gi = 0; gi < circuit.size(); ++gi) {
    if (preds[gi] == 0) front.push_back(gi);
  }

  std::vector<double> decay(static_cast<std::size_t>(m), 1.0);
  int swaps_since_progress = 0;
  const int livelock_limit = 10 * m * m + 50;

  // Per-step buffers, reused so a SWAP decision allocates nothing.
  std::vector<std::size_t> current;
  std::vector<std::size_t> blocked;
  std::vector<std::pair<int, int>> front_pairs;
  std::vector<std::pair<int, int>> extended;
  std::vector<std::size_t> wave;
  std::vector<std::size_t> next_wave;
  std::vector<std::size_t> lookahead_undo;  // preds decremented by the lookahead
  std::vector<int> front_owner(static_cast<std::size_t>(m), -1);  // physical -> front pair
  const auto hops_at = [&](int u, int v) {
    return hops[static_cast<std::size_t>(u) * static_cast<std::size_t>(m) +
                static_cast<std::size_t>(v)];
  };

  const auto coupled_under = [&](const Gate& g, const std::vector<int>& lay) {
    return hops_at(lay[static_cast<std::size_t>(g.control)],
                   lay[static_cast<std::size_t>(g.target)]) == 1;
  };

  const auto schedule = [&](std::size_t gi) {
    if (route != nullptr) route->gate(circuit.gate(gi));
    for (const std::size_t succ : dag.succs[gi]) {
      if (--preds[succ] == 0) front.push_back(succ);
    }
  };

  const auto apply_swap = [&](int a, int b) {
    if (route != nullptr) route->swap(a, b);
    for (auto& p : layout) {
      if (p == a) {
        p = b;
      } else if (p == b) {
        p = a;
      }
    }
  };

  while (!front.empty()) {
    // Schedule everything executable in the current front.
    bool progressed = false;
    blocked.clear();
    std::swap(current, front);
    front.clear();
    for (const std::size_t gi : current) {
      const Gate& g = circuit.gate(gi);
      if (!g.is_cnot() || coupled_under(g, layout)) {
        schedule(gi);
        progressed = true;
      } else {
        blocked.push_back(gi);
      }
    }
    for (const std::size_t gi : blocked) front.push_back(gi);
    if (progressed) {
      std::fill(decay.begin(), decay.end(), 1.0);
      swaps_since_progress = 0;
      continue;
    }
    if (front.empty()) break;

    // All front gates are blocked CNOTs: pick a SWAP.
    if (++swaps_since_progress > livelock_limit) {
      // Deterministic fallback: walk the first blocked pair together.
      const Gate& g = circuit.gate(front[0]);
      const int pc = layout[static_cast<std::size_t>(g.control)];
      const int pt = layout[static_cast<std::size_t>(g.target)];
      int best_nb = -1;
      int best_d = hops_at(pc, pt);
      for (const int nb : cm.neighbours(pc)) {
        if (hops_at(nb, pt) < best_d) {
          best_d = hops_at(nb, pt);
          best_nb = nb;
        }
      }
      if (best_nb < 0) throw std::logic_error("map_sabre: cannot make progress");
      apply_swap(pc, best_nb);
      continue;
    }

    // Extended set: the next CNOTs reachable behind the front. The wave
    // walk decrements `preds` in place and restores it from an undo list.
    front_pairs.clear();
    for (const std::size_t gi : front) {
      front_pairs.emplace_back(circuit.gate(gi).control, circuit.gate(gi).target);
    }
    extended.clear();
    wave.assign(front.begin(), front.end());
    while (!wave.empty() && static_cast<int>(extended.size()) < opt.extended_set_size) {
      next_wave.clear();
      for (const std::size_t gi : wave) {
        for (const std::size_t succ : dag.succs[gi]) {
          lookahead_undo.push_back(succ);
          if (--preds[succ] == 0) {
            next_wave.push_back(succ);
            const Gate& g = circuit.gate(succ);
            if (g.is_cnot()) extended.emplace_back(g.control, g.target);
          }
        }
      }
      std::swap(wave, next_wave);
    }
    for (const std::size_t gi : lookahead_undo) ++preds[gi];
    lookahead_undo.clear();

    // Front gates act on distinct qubits, so each physical qubit hosts at
    // most one front pair. Hop counts are small integers, so summing them
    // as int and converting once gives the same double as a floating-point
    // sum in any order.
    int front_distance = 0;
    for (std::size_t k = 0; k < front_pairs.size(); ++k) {
      const int pc = layout[static_cast<std::size_t>(front_pairs[k].first)];
      const int pt = layout[static_cast<std::size_t>(front_pairs[k].second)];
      front_owner[static_cast<std::size_t>(pc)] = static_cast<int>(k);
      front_owner[static_cast<std::size_t>(pt)] = static_cast<int>(k);
      front_distance += hops_at(pc, pt);
    }

    // Candidate swaps: edges touching any qubit of a blocked front pair.
    double best_score = 0;
    std::pair<int, int> best_edge{-1, -1};
    int candidates = 0;
    for (const auto& [a, b] : cm.undirected_edges()) {
      const int ka = front_owner[static_cast<std::size_t>(a)];
      const int kb = front_owner[static_cast<std::size_t>(b)];
      if (ka < 0 && kb < 0) continue;
      const auto moved_distance = [&, a = a, b = b](const std::pair<int, int>& pr) {
        const auto moved = [a, b](int x) { return x == a ? b : (x == b ? a : x); };
        return hops_at(moved(layout[static_cast<std::size_t>(pr.first)]),
                       moved(layout[static_cast<std::size_t>(pr.second)]));
      };
      const auto pair_delta = [&](int k) {
        const auto& pr = front_pairs[static_cast<std::size_t>(k)];
        return moved_distance(pr) - hops_at(layout[static_cast<std::size_t>(pr.first)],
                                            layout[static_cast<std::size_t>(pr.second)]);
      };
      int front_after = front_distance;
      if (ka >= 0) front_after += pair_delta(ka);
      if (kb >= 0 && kb != ka) front_after += pair_delta(kb);
      double score = front_after;
      if (!extended.empty()) {
        int extended_after = 0;
        for (const auto& pr : extended) extended_after += moved_distance(pr);
        score += opt.extended_set_weight * extended_after / static_cast<double>(extended.size());
      }
      score *= std::max(decay[static_cast<std::size_t>(a)], decay[static_cast<std::size_t>(b)]);
      // Small random jitter for tie-breaking.
      score += 1e-9 * rng.next_double();
      if (candidates == 0 || score < best_score) {
        best_score = score;
        best_edge = {a, b};
      }
      ++candidates;
    }
    for (const auto& [qc, qt] : front_pairs) {
      front_owner[static_cast<std::size_t>(layout[static_cast<std::size_t>(qc)])] = -1;
      front_owner[static_cast<std::size_t>(layout[static_cast<std::size_t>(qt)])] = -1;
    }
    if (best_edge.first < 0) throw std::logic_error("map_sabre: no candidate swap");
    decay[static_cast<std::size_t>(best_edge.first)] += opt.decay;
    decay[static_cast<std::size_t>(best_edge.second)] += opt.decay;
    apply_swap(best_edge.first, best_edge.second);
  }
  return layout;
}

/// Circuit with the gate order reversed (routing only cares about pair
/// adjacency, so daggering the gates is unnecessary).
Circuit reversed(const Circuit& c) {
  Circuit out(c.num_qubits(), c.name());
  for (std::size_t i = c.size(); i-- > 0;) out.append(c.gate(i));
  return out;
}

}  // namespace

exact::MappingResult map_sabre(const Circuit& circuit, const arch::CouplingMap& cm,
                               const SabreOptions& options) {
  const auto start = Clock::now();
  const int n = circuit.num_qubits();
  const int m = cm.num_physical();
  if (n > m) throw std::invalid_argument("map_sabre: circuit larger than architecture");
  if (!cm.is_connected()) {
    throw std::invalid_argument("map_sabre: coupling graph must be connected");
  }
  if (circuit.counts().swap > 0) {
    // Raw swap pseudo-gates in the *input* are decomposed here (Fig. 3 form)
    // and their elementary gates routed like any others.
    return map_sabre(circuit.with_swaps_expanded(), cm, options);
  }

  obs::Span span("heuristic.sabre", "heuristic");
  span.attr("circuit", circuit.name());
  span.attr("bidirectional_rounds", static_cast<long long>(options.bidirectional_rounds));
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_heuristic_maps_total", "Heuristic mapper invocations (all algorithms)");
  maps_total.inc();

  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  const arch::DistanceMatrix& dist = *dist_handle;
  const std::vector<int> hops = hop_table(dist);
  const exact::CostModel costs = options.costs.resolved(cm);
  Rng rng(options.seed);
  const Circuit rev = reversed(circuit);
  const Dag forward(circuit);
  const Dag backward(rev);

  // Bidirectional warm-up: forward and backward passes refine the layout.
  std::vector<int> layout(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) layout[static_cast<std::size_t>(j)] = j;
  for (int round = 0; round < options.bidirectional_rounds; ++round) {
    obs::Span iter("heuristic.iteration", "heuristic");
    iter.attr("round", static_cast<long long>(round));
    layout = run_pass(forward, cm, hops, options, std::move(layout), rng, nullptr);
    layout = run_pass(backward, cm, hops, options, std::move(layout), rng, nullptr);
  }

  exact::RouteBuilder route(circuit, cm, layout);
  run_pass(forward, cm, hops, options, std::move(layout), rng, &route);
  exact::MappingResult res = std::move(route).finish(costs, options.verify);
  res.engine_name = "sabre";
  res.status = reason::Status::Feasible;
  res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return res;
}

}  // namespace qxmap::heuristic
