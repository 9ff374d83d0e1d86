/// \file swap_cost_cache.hpp
/// Process-wide cache of per-architecture routing tables.
///
/// The paper notes that the swaps(π) tables "need to be conducted only
/// once" per architecture; this cache makes that literal across `map()`
/// calls (and across the subset instances of one call, whose induced
/// coupling maps frequently coincide after renumbering). Entries are keyed
/// by CouplingMap::fingerprint(), so structurally identical maps share one
/// table regardless of name, while directed and bidirected variants of the
/// same graph never alias.
///
/// Two kinds of entries are cached behind `shared_ptr` handles:
///  * SwapCostTable — the exhaustive swaps(π) table (O(m!) memory per
///    entry, m <= 8), used by the exact mapper and the reference search;
///  * DistanceMatrix — the all-pairs cost matrix (O(m²) memory), used by
///    the heuristic mappers.
///
/// Both stores are bounded by the same entry capacity with LRU eviction;
/// evicting an entry never invalidates handles already handed out. All
/// operations are thread-safe; a table is built at most once per key except
/// for a bounded duplicate when several threads miss simultaneously (the
/// build runs outside the lock; the losing builders adopt the winner's
/// entry).

#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/coupling_map.hpp"
#include "arch/distances.hpp"
#include "arch/swap_costs.hpp"
#include "obs/metrics.hpp"

namespace qxmap::arch {

/// Thread-safe LRU cache of SwapCostTable / DistanceMatrix entries.
class SwapCostCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  /// \param capacity maximum entries per store (clamped to >= 1).
  explicit SwapCostCache(std::size_t capacity = kDefaultCapacity);

  /// The process-wide instance used by map_exact, the reference search and
  /// the heuristic mappers.
  [[nodiscard]] static SwapCostCache& instance();

  /// The swaps(π) table for `cm`, built on first use. Propagates
  /// SwapCostTable's exceptions (m > 8, disconnected graph) without caching.
  [[nodiscard]] std::shared_ptr<const SwapCostTable> table(const CouplingMap& cm);

  /// The all-pairs distance matrix for `cm`, built on first use.
  [[nodiscard]] std::shared_ptr<const DistanceMatrix> distances(const CouplingMap& cm);

  /// Drops every entry (outstanding handles stay valid). The
  /// `qxmap_swap_cost_cache_*` counters are process-lifetime tallies and
  /// keep counting.
  void clear();

  /// Changes the per-store capacity (clamped to >= 1), evicting LRU entries
  /// immediately if either store is over the new bound.
  void set_capacity(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::size_t table_entries() const;
  [[nodiscard]] std::size_t distance_entries() const;

 private:
  template <typename Value>
  struct LruStore {
    struct Entry {
      std::shared_ptr<const Value> value;
      std::list<std::string>::iterator lru_it;
    };
    LruStore(obs::Counter& hits_total, obs::Counter& misses_total,
             obs::Counter& evictions_total)
        : hits(hits_total), misses(misses_total), evictions(evictions_total) {}

    std::list<std::string> lru;  // front = most recently used
    std::unordered_map<std::string, Entry> entries;
    // Process-wide registry counters, shared by every SwapCostCache.
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;

    // All three run under the owning cache's mutex.
    std::shared_ptr<const Value> find_and_touch(const std::string& key);
    std::shared_ptr<const Value> insert_or_adopt(const std::string& key,
                                                 std::shared_ptr<const Value> built,
                                                 std::size_t capacity);
    void evict_to(std::size_t capacity);
  };

  template <typename Value, typename Build>
  std::shared_ptr<const Value> get(LruStore<Value>& store, const CouplingMap& cm, Build build);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  LruStore<SwapCostTable> tables_;
  LruStore<DistanceMatrix> distances_;
};

}  // namespace qxmap::arch
