/// SwapCostCache semantics: hit/miss accounting (deltas of the process-wide
/// `qxmap_swap_cost_cache_*` counters), fingerprint separation of
/// structurally distinct coupling maps, LRU eviction at capacity, handle
/// stability across eviction, and multi-threaded hammering of one cache.

#include "arch/swap_cost_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/qxmap.hpp"
#include "arch/architectures.hpp"
#include "common/permutation.hpp"
#include "metrics_test_helpers.hpp"

namespace qxmap {
namespace {

using arch::CouplingMap;
using arch::SwapCostCache;

/// One store's counters' increase since construction ("table" or
/// "distance"). Every SwapCostCache feeds the same counters; construct it
/// after a cache, whose constructor registers them.
struct StoreCounts {
  explicit StoreCounts(const std::string& store)
      : hits("qxmap_swap_cost_cache_" + store + "_hits_total"),
        misses("qxmap_swap_cost_cache_" + store + "_misses_total"),
        evictions("qxmap_swap_cost_cache_" + store + "_evictions_total") {}
  testutil::CounterDelta hits;
  testutil::CounterDelta misses;
  testutil::CounterDelta evictions;
};

TEST(Fingerprint, EncodesQubitCountAndDirectedEdges) {
  const CouplingMap a(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(a.fingerprint(), "m3:0>1;1>2");
  const CouplingMap no_edges(2, {});
  EXPECT_EQ(no_edges.fingerprint(), "m2:");
}

TEST(Fingerprint, NameDoesNotAffectIdentity) {
  const CouplingMap a(3, {{0, 1}, {1, 2}}, "alpha");
  const CouplingMap b(3, {{0, 1}, {1, 2}}, "beta");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Fingerprint, DirectedAndBidirectedEdgesDoNotAlias) {
  const CouplingMap directed(2, {{0, 1}});
  const CouplingMap bidirected(2, {{0, 1}, {1, 0}});
  const CouplingMap reversed(2, {{1, 0}});
  EXPECT_NE(directed.fingerprint(), bidirected.fingerprint());
  EXPECT_NE(directed.fingerprint(), reversed.fingerprint());
  EXPECT_NE(reversed.fingerprint(), bidirected.fingerprint());
}

TEST(Fingerprint, QubitCountMattersBeyondEdges) {
  // Same edge list, different number of (isolated) qubits.
  const CouplingMap two(2, {{0, 1}});
  const CouplingMap three(3, {{0, 1}});
  EXPECT_NE(two.fingerprint(), three.fingerprint());
}

TEST(SwapCostCacheTest, MissThenHitSharesOneTable) {
  SwapCostCache cache(4);
  const StoreCounts counts("table");
  const auto cm = arch::ibm_qx4();
  const auto first = cache.table(cm);
  const auto second = cache.table(cm);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.table_entries(), 1u);
  EXPECT_EQ(counts.misses(), 1u);
  EXPECT_EQ(counts.hits(), 1u);
  EXPECT_EQ(counts.evictions(), 0u);
  // The cached table is the real thing.
  EXPECT_EQ(first->swaps(Permutation(5)), 0);
  EXPECT_EQ(first->max_swaps(), arch::SwapCostTable(cm).max_swaps());
}

TEST(SwapCostCacheTest, StructurallyIdenticalMapsShareRegardlessOfName) {
  SwapCostCache cache(4);
  const CouplingMap a(3, {{0, 1}, {1, 2}}, "first");
  const CouplingMap b(3, {{0, 1}, {1, 2}}, "second");
  const auto ta = cache.table(a);
  const auto tb = cache.table(b);
  EXPECT_EQ(ta.get(), tb.get());
  EXPECT_EQ(cache.table_entries(), 1u);
}

TEST(SwapCostCacheTest, DirectedVsBidirectedGetDistinctEntries) {
  SwapCostCache cache(4);
  const CouplingMap directed(3, {{0, 1}, {1, 2}});
  const CouplingMap bidirected(3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}});
  const auto td = cache.table(directed);
  const auto tb = cache.table(bidirected);
  EXPECT_NE(td.get(), tb.get());
  EXPECT_EQ(cache.table_entries(), 2u);
  // Distances differ too: cnot_cost(1, 0) pays the 4-H reversal only on the
  // directed variant.
  const auto dd = cache.distances(directed);
  const auto db = cache.distances(bidirected);
  EXPECT_EQ(dd->cnot_cost(1, 0), 4);
  EXPECT_EQ(db->cnot_cost(1, 0), 0);
}

TEST(SwapCostCacheTest, LruEvictionAtCapacity) {
  SwapCostCache cache(2);
  const StoreCounts counts("table");
  const auto a = arch::linear(3);
  const auto b = arch::ring(3);
  const auto c = arch::clique(3);

  const auto ta = cache.table(a);
  (void)cache.table(b);
  EXPECT_EQ(cache.table_entries(), 2u);

  (void)cache.table(a);  // touch a: b becomes least recently used
  (void)cache.table(c);  // inserts c, evicts b
  EXPECT_EQ(cache.table_entries(), 2u);
  EXPECT_EQ(counts.evictions(), 1u);

  // a survived (hit), b was evicted (miss again), and the handle returned
  // for a is still the original object.
  const StoreCounts after_eviction("table");
  EXPECT_EQ(cache.table(a).get(), ta.get());
  EXPECT_EQ(after_eviction.hits(), 1u);
  (void)cache.table(b);
  EXPECT_EQ(after_eviction.misses(), 1u);
}

TEST(SwapCostCacheTest, EvictedHandleStaysValid) {
  SwapCostCache cache(1);
  const auto a = arch::linear(3);
  const auto handle = cache.table(a);
  (void)cache.table(arch::ring(3));  // evicts a's entry
  EXPECT_EQ(cache.table_entries(), 1u);
  // The shared_ptr keeps the evicted table alive and usable.
  EXPECT_EQ(handle->swaps(Permutation(3)), 0);
  EXPECT_GT(handle->max_swaps(), 0);
}

TEST(SwapCostCacheTest, SetCapacityEvictsImmediately) {
  SwapCostCache cache(4);
  const StoreCounts counts("table");
  (void)cache.table(arch::linear(3));
  (void)cache.table(arch::ring(3));
  (void)cache.table(arch::clique(3));
  EXPECT_EQ(cache.table_entries(), 3u);
  cache.set_capacity(1);
  EXPECT_EQ(cache.table_entries(), 1u);
  EXPECT_EQ(counts.evictions(), 2u);
  // Capacity is clamped to at least one entry.
  cache.set_capacity(0);
  EXPECT_EQ(cache.capacity(), 1u);
}

TEST(SwapCostCacheTest, ClearDropsEntriesButKeepsCounters) {
  SwapCostCache cache(4);
  const StoreCounts table("table");
  const StoreCounts distance("distance");
  (void)cache.table(arch::ibm_qx4());
  (void)cache.distances(arch::ibm_qx4());
  cache.clear();
  EXPECT_EQ(cache.table_entries(), 0u);
  EXPECT_EQ(cache.distance_entries(), 0u);
  // The counters are process-lifetime tallies: clear() neither resets them
  // nor counts the dropped entries as evictions.
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(distance.misses(), 1u);
  EXPECT_EQ(table.evictions(), 0u);
  EXPECT_EQ(distance.evictions(), 0u);
  // The entries are gone: the next lookups miss and rebuild.
  (void)cache.table(arch::ibm_qx4());
  (void)cache.distances(arch::ibm_qx4());
  EXPECT_EQ(table.misses(), 2u);
  EXPECT_EQ(distance.misses(), 2u);
  EXPECT_EQ(table.hits(), 0u);
  EXPECT_EQ(distance.hits(), 0u);
}

TEST(SwapCostCacheTest, OversizedArchitectureErrorIsNotCached) {
  SwapCostCache cache(4);
  const auto big = arch::ibm_qx5();  // 16 qubits: SwapCostTable must throw
  EXPECT_THROW((void)cache.table(big), std::invalid_argument);
  EXPECT_EQ(cache.table_entries(), 0u);
  // Distances are fine at any size and cache independently.
  EXPECT_EQ(cache.distances(big)->size(), 16);
  EXPECT_EQ(cache.distance_entries(), 1u);
}

TEST(SwapCostCacheTest, ManyThreadsHammerOneTable) {
  SwapCostCache cache(4);
  const StoreCounts counts("table");
  const auto cm = arch::ibm_qx4();
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;

  std::vector<std::shared_ptr<const arch::SwapCostTable>> seen(
      static_cast<std::size_t>(kThreads));
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::shared_ptr<const arch::SwapCostTable> last;
      for (int i = 0; i < kIterations; ++i) {
        last = cache.table(cm);
        (void)cache.distances(cm);
      }
      seen[static_cast<std::size_t>(t)] = last;
    });
  }
  for (auto& th : pool) th.join();

  // Every thread ended up with the same shared table.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)].get(), seen[0].get());
  }
  EXPECT_EQ(cache.table_entries(), 1u);
  // Simultaneous first misses may build duplicates (bounded by the thread
  // count), but every lookup is accounted for.
  EXPECT_GE(counts.misses(), 1u);
  EXPECT_LE(counts.misses(), static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(counts.hits() + counts.misses(),
            static_cast<std::uint64_t>(kThreads) * static_cast<std::uint64_t>(kIterations));
}

TEST(SwapCostCacheTest, ConcurrentMapCallsShareTheProcessWideCache) {
  auto& cache = SwapCostCache::instance();
  cache.clear();
  const StoreCounts counts("table");

  Circuit c(3, "cache-hammer");
  c.cnot(0, 1);
  c.cnot(1, 2);
  c.cnot(0, 2);

  MapOptions options;
  options.exact.engine = reason::EngineKind::Cdcl;
  options.exact.use_subsets = true;
  options.exact.budget = std::chrono::milliseconds(20000);

  constexpr int kCallers = 4;
  std::vector<exact::MappingResult> results(kCallers);
  std::vector<std::thread> pool;
  pool.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    pool.emplace_back(
        [&, t] { results[static_cast<std::size_t>(t)] = map(c, arch::ibm_qx4(), options); });
  }
  for (auto& th : pool) th.join();

  for (int t = 1; t < kCallers; ++t) {
    EXPECT_EQ(results[static_cast<std::size_t>(t)].cost_f, results[0].cost_f);
    EXPECT_EQ(results[static_cast<std::size_t>(t)].mapped, results[0].mapped);
  }
  // The subset instances of all four concurrent calls fed one cache; the
  // distinct induced 3-subset shapes of QX4 are far fewer than the lookups.
  EXPECT_GE(counts.hits(), 1u);
  EXPECT_GT(cache.table_entries(), 0u);
}

}  // namespace
}  // namespace qxmap
