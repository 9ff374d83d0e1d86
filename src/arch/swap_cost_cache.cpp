#include "arch/swap_cost_cache.hpp"

#include <algorithm>
#include <utility>

namespace qxmap::arch {

namespace {

obs::Counter& counter(const char* name, const char* help) {
  return obs::MetricsRegistry::instance().counter(name, help);
}

}  // namespace

template <typename Value>
std::shared_ptr<const Value> SwapCostCache::LruStore<Value>::find_and_touch(
    const std::string& key) {
  const auto it = entries.find(key);
  if (it == entries.end()) return nullptr;
  lru.splice(lru.begin(), lru, it->second.lru_it);
  return it->second.value;
}

template <typename Value>
std::shared_ptr<const Value> SwapCostCache::LruStore<Value>::insert_or_adopt(
    const std::string& key, std::shared_ptr<const Value> built, std::size_t capacity) {
  // Another thread may have inserted the same key while we were building
  // outside the lock; its entry wins so every caller shares one object.
  if (auto existing = find_and_touch(key)) return existing;
  lru.push_front(key);
  entries.emplace(key, Entry{built, lru.begin()});
  evict_to(capacity);
  return built;
}

template <typename Value>
void SwapCostCache::LruStore<Value>::evict_to(std::size_t capacity) {
  while (entries.size() > capacity) {
    entries.erase(lru.back());
    lru.pop_back();
    evictions.inc();
  }
}

template <typename Value, typename Build>
std::shared_ptr<const Value> SwapCostCache::get(LruStore<Value>& store, const CouplingMap& cm,
                                                Build build) {
  const std::string& key = cm.fingerprint();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = store.find_and_touch(key)) {
      store.hits.inc();
      return hit;
    }
    store.misses.inc();
  }
  // Build outside the lock: an O(m!) BFS must not serialize unrelated keys.
  auto built = std::make_shared<const Value>(build(cm));
  const std::lock_guard<std::mutex> lock(mutex_);
  return store.insert_or_adopt(key, std::move(built), capacity_);
}

// Registry counters are process-lifetime instruments: every SwapCostCache
// (the singleton and any test-local instance) feeds the same tallies.
SwapCostCache::SwapCostCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      tables_(counter("qxmap_swap_cost_cache_table_hits_total", "swaps(pi) table cache hits"),
              counter("qxmap_swap_cost_cache_table_misses_total",
                      "swaps(pi) table cache misses (table built)"),
              counter("qxmap_swap_cost_cache_table_evictions_total",
                      "swaps(pi) table LRU evictions")),
      distances_(counter("qxmap_swap_cost_cache_distance_hits_total",
                         "Distance-matrix cache hits"),
                 counter("qxmap_swap_cost_cache_distance_misses_total",
                         "Distance-matrix cache misses (matrix built)"),
                 counter("qxmap_swap_cost_cache_distance_evictions_total",
                         "Distance-matrix LRU evictions")) {}

SwapCostCache& SwapCostCache::instance() {
  static SwapCostCache cache;
  return cache;
}

std::shared_ptr<const SwapCostTable> SwapCostCache::table(const CouplingMap& cm) {
  return get(tables_, cm, [](const CouplingMap& m) { return SwapCostTable(m); });
}

std::shared_ptr<const DistanceMatrix> SwapCostCache::distances(const CouplingMap& cm) {
  return get(distances_, cm, [](const CouplingMap& m) { return DistanceMatrix(m); });
}

void SwapCostCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  tables_.lru.clear();
  tables_.entries.clear();
  distances_.lru.clear();
  distances_.entries.clear();
}

void SwapCostCache::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(1, capacity);
  tables_.evict_to(capacity_);
  distances_.evict_to(capacity_);
}

std::size_t SwapCostCache::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::size_t SwapCostCache::table_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tables_.entries.size();
}

std::size_t SwapCostCache::distance_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return distances_.entries.size();
}

}  // namespace qxmap::arch
