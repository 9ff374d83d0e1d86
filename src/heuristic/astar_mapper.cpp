#include "heuristic/astar_mapper.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "arch/distances.hpp"
#include "arch/swap_cost_cache.hpp"
#include "exact/swap_synthesis.hpp"
#include "ir/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::heuristic {

namespace {

using Clock = std::chrono::steady_clock;

/// Upper bound on the live memory of one layer's search. A generated node
/// costs its layout and back-pointer in the arenas, an open-list entry and
/// a best-cost entry. The vector-held parts are counted twice, for the
/// slack of geometric growth. The search throws its budget error before
/// the nodes could outgrow this, so a layer it cannot close fails fast
/// instead of exhausting memory.
constexpr std::size_t kSearchMemoryBytes = std::size_t{128} << 20;
constexpr std::size_t kBestCostEntryBytes = 64;  // hash node, bucket and allocator overhead

[[noreturn]] void budget_exhausted() {
  throw std::invalid_argument("map_astar: search budget exhausted for a layer");
}

/// A* search for the cheapest SWAP sequence making all `pairs` executable.
/// Nodes keep their layout in one flat arena and a back-pointer to their
/// parent instead of a copy of their whole SWAP history.
std::vector<std::pair<int, int>> astar_route(const std::vector<std::pair<int, int>>& pairs,
                                             const std::vector<int>& start_layout,
                                             const arch::CouplingMap& cm,
                                             const arch::DistanceMatrix& dist, int max_expansions,
                                             long long swap_cost) {
  struct Node {
    long long f;
    long long g;
    std::uint32_t id;  // index into `layouts` / `links`
    bool operator>(const Node& o) const { return f > o.f; }
  };
  struct Link {
    std::uint32_t parent;
    std::uint32_t edge;  // index into cm.undirected_edges()
  };
  const auto& edges = cm.undirected_edges();
  const std::size_t n = start_layout.size();
  const std::size_t node_bytes =
      2 * (n * sizeof(int) + sizeof(Link) + sizeof(Node)) + kBestCostEntryBytes;
  const std::size_t max_nodes = kSearchMemoryBytes / node_bytes;

  std::vector<int> layouts(start_layout);  // n entries per generated node
  std::vector<Link> links{{0, 0}};         // the root's link is never followed
  const auto layout_of = [&](std::uint32_t id) { return layouts.data() + id * n; };

  const auto heuristic = [&](const int* lay) {
    long long h = 0;
    for (const auto& [qc, qt] : pairs) {
      const int pc = lay[qc];
      const int pt = lay[qt];
      if (!cm.coupled(pc, pt)) {
        // Admissible: at least hops-1 SWAPs are still needed for this pair.
        h += swap_cost * (dist.hops(pc, pt) - 1);
      }
    }
    return h;
  };
  const auto is_goal = [&](const int* lay) {
    return std::all_of(pairs.begin(), pairs.end(),
                       [&](const auto& pr) { return cm.coupled(lay[pr.first], lay[pr.second]); });
  };

  // Best cost per distinct layout, keyed by the first node holding it.
  const auto hash = [&](std::uint32_t id) {
    const int* lay = layout_of(id);
    std::size_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the placement
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<std::size_t>(lay[i])) * 0x100000001b3ULL;
    }
    return h;
  };
  const auto same = [&](std::uint32_t x, std::uint32_t y) {
    return std::equal(layout_of(x), layout_of(x) + n, layout_of(y));
  };
  using BestCost = std::unordered_map<std::uint32_t, long long, decltype(hash), decltype(same)>;
  BestCost best_g(0, hash, same);
  std::priority_queue<Node, std::vector<Node>, std::greater<>> open;
  open.push({heuristic(layout_of(0)), 0, 0});
  best_g.emplace(0, 0);

  int expansions = 0;
  while (!open.empty()) {
    const Node cur = open.top();
    open.pop();
    if (best_g.find(cur.id)->second < cur.g) continue;  // stale entry
    if (is_goal(layout_of(cur.id))) {
      std::vector<std::pair<int, int>> swaps;
      for (std::uint32_t id = cur.id; id != 0; id = links[id].parent) {
        swaps.push_back(edges[links[id].edge]);
      }
      std::reverse(swaps.begin(), swaps.end());
      return swaps;
    }
    if (++expansions > max_expansions) break;
    for (std::uint32_t e = 0; e < edges.size(); ++e) {
      const auto [a, b] = edges[e];
      // Write the child at the end of the arena; drop it again unless it
      // improves on its layout's best cost.
      const auto id = static_cast<std::uint32_t>(links.size());
      layouts.resize(layouts.size() + n);
      const int* parent = layout_of(cur.id);
      int* child = layout_of(id);
      for (std::size_t i = 0; i < n; ++i) {
        child[i] = parent[i] == a ? b : (parent[i] == b ? a : parent[i]);
      }
      const long long g = cur.g + swap_cost;
      if (const auto [it, inserted] = best_g.try_emplace(id, g); !inserted) {
        if (it->second <= g) {
          layouts.resize(layouts.size() - n);
          continue;
        }
        it->second = g;
      }
      if (links.size() >= max_nodes) budget_exhausted();
      links.push_back({cur.id, e});
      open.push({g + heuristic(child), g, id});
    }
  }
  budget_exhausted();
}

}  // namespace

exact::MappingResult map_astar(const Circuit& circuit, const arch::CouplingMap& cm,
                               const AStarOptions& options) {
  const auto start = Clock::now();
  const int n = circuit.num_qubits();
  const int m = cm.num_physical();
  if (n > m) throw std::invalid_argument("map_astar: circuit larger than architecture");
  if (!cm.is_connected()) {
    throw std::invalid_argument("map_astar: coupling graph must be connected");
  }
  if (circuit.counts().swap > 0) {
    // Raw swap pseudo-gates in the *input* are decomposed here (Fig. 3 form)
    // and their elementary gates routed like any others.
    return map_astar(circuit.with_swaps_expanded(), cm, options);
  }

  obs::Span span("heuristic.astar", "heuristic");
  span.attr("circuit", circuit.name());
  static obs::Counter& maps_total = obs::MetricsRegistry::instance().counter(
      "qxmap_heuristic_maps_total", "Heuristic mapper invocations (all algorithms)");
  maps_total.inc();

  const auto dist_handle = arch::SwapCostCache::instance().distances(cm);
  const arch::DistanceMatrix& dist = *dist_handle;
  const exact::CostModel costs = options.costs.resolved(cm);

  exact::RouteBuilder route(circuit, cm);
  for (const auto& layer : asap_layers(circuit)) {
    std::vector<std::pair<int, int>> pairs;
    for (const std::size_t gi : layer) {
      const Gate& g = circuit.gate(gi);
      if (g.is_cnot()) pairs.emplace_back(g.control, g.target);
    }
    if (!pairs.empty()) {
      for (const auto& [a, b] : astar_route(pairs, route.layout(), cm, dist,
                                            options.max_expansions, costs.swap_cost)) {
        route.swap(a, b);
      }
    }
    for (const std::size_t gi : layer) route.gate(circuit.gate(gi));
  }

  exact::MappingResult res = std::move(route).finish(costs, options.verify);
  res.engine_name = "astar";
  res.status = reason::Status::Feasible;
  res.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return res;
}

}  // namespace qxmap::heuristic
