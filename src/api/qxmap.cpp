#include "api/qxmap.hpp"

#include <stdexcept>

namespace qxmap {

exact::MappingResult map(const Circuit& circuit, const arch::CouplingMap& architecture,
                         const MapOptions& options) {
  switch (options.method) {
    case Method::Exact:
      return exact::map_exact(circuit, architecture, options.exact);
    case Method::StochasticSwap:
      return heuristic::map_stochastic_swap(circuit, architecture, options.stochastic);
    case Method::AStar:
      return heuristic::map_astar(circuit, architecture, options.astar);
    case Method::Sabre:
      return heuristic::map_sabre(circuit, architecture, options.sabre);
  }
  throw std::invalid_argument("map: bad Method");
}

const char* version() {
#ifdef QXMAP_VERSION_STRING
  return QXMAP_VERSION_STRING;
#else
  return "1.0.0";
#endif
}

}  // namespace qxmap
