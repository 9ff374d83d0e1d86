/// \file service.hpp
/// Mapping-as-a-service front-end: result cache + in-flight deduplication.
///
/// `MappingService::map()` wraps the stateless `qxmap::map()` facade with
/// two layers that matter the moment the library serves repeated traffic
/// (batch pipelines, compilation servers, parameter sweeps re-mapping the
/// same structural circuit):
///
///  * **Result cache.** Completed results are kept in an LRU cache (the
///    idiom of `arch::SwapCostCache`, one level up the stack) keyed by the
///    canonical request identity: the circuit's content fingerprint
///    (ir/fingerprint.hpp), the architecture's structural fingerprint
///    (`arch::CouplingMap::fingerprint()`), and a digest over every
///    result-affecting option. The one performance knob documented *not*
///    to change results — `num_threads` — is excluded from the digest, so a
///    request at 8 threads hits the entry a 1-thread request populated. A cache hit
///    returns a copy of the stored result with `from_cache = true` and the
///    mapped/skeleton circuit names restamped for the requesting circuit
///    (two same-fingerprint circuits may differ in name, which is not part
///    of the identity).
///  * **In-flight deduplication.** Concurrent `map()` calls with the same
///    key share one solve: the first caller (the leader) computes; later
///    callers (joiners) block on a `std::shared_future` of the leader's
///    result instead of spawning duplicate shard work. A failing solve
///    propagates its exception to every joiner and caches *nothing* — the
///    in-flight registry entry is removed before the promise is fulfilled,
///    so the next request with that key retries instead of re-observing the
///    failure (no cache poisoning).
///
/// Determinism: a cache hit is bit-identical to the solve that populated
/// the entry in every result field except the documented observability
/// fields (`seconds`, `bound_polls`, `bound_tightenings` are the stored
/// values, not re-measured) and the `from_cache` marker itself. Joiners
/// receive the leader's freshly solved result with `from_cache = false`.
///
/// docs/service.md specifies the key construction, the dedup protocol, and
/// the interaction with the process-wide `exact::ShardExecutor` (shards of
/// distinct cache misses interleave through its single queue). Every
/// request's path (hit, join, miss; solve or failure; evictions) is tallied
/// on the `qxmap_service_*` counters of `obs::MetricsRegistry`
/// (docs/observability.md).

#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "api/qxmap.hpp"

namespace qxmap::api {

/// Thread-safe caching / deduplicating front-end over `qxmap::map()`.
class MappingService {
 public:
  /// Injectable solver, for tests that need deterministic control over
  /// solve timing and count. Defaults to `qxmap::map`.
  using SolveFn =
      std::function<exact::MappingResult(const Circuit&, const arch::CouplingMap&,
                                         const MapOptions&)>;

  static constexpr std::size_t kDefaultCapacity = 64;

  /// \param capacity most-recently-used results kept (0 = cache nothing;
  /// deduplication still applies). \param solve custom solver or {} for
  /// `qxmap::map`.
  explicit MappingService(std::size_t capacity = kDefaultCapacity, SolveFn solve = {});

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// The process-wide service used by `qxmap_serve` and `bench_service`.
  [[nodiscard]] static MappingService& instance();

  /// Maps `circuit` onto `architecture`, serving from the cache or joining
  /// an identical in-flight request when possible. Rethrows the solver's
  /// exception on failure (joiners included); failures are never cached.
  [[nodiscard]] exact::MappingResult map(const Circuit& circuit,
                                         const arch::CouplingMap& architecture,
                                         const MapOptions& options = {});

  /// The canonical request identity: "<circuit fp>|<arch fp>|<options
  /// digest>". Only the option block matching `options.method` contributes,
  /// and result-neutral performance knobs are excluded — see the file
  /// comment. Exposed so tests can pin the equivalence classes.
  [[nodiscard]] static std::string cache_key(const Circuit& circuit,
                                             const arch::CouplingMap& architecture,
                                             const MapOptions& options);

  [[nodiscard]] std::size_t size() const;         ///< cached entries
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Drops cached results. The `qxmap_service_*` counters are process-
  /// lifetime tallies and keep counting.
  void clear();

 private:
  struct Entry {
    exact::MappingResult result;
    std::list<std::string>::iterator lru_it;
  };

  exact::MappingResult solve_as_leader(const std::string& key, const Circuit& circuit,
                                       const arch::CouplingMap& architecture,
                                       const MapOptions& options,
                                       std::promise<exact::MappingResult> promise);

  const std::size_t capacity_;
  const SolveFn solve_;
  mutable std::mutex mutex_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> cache_;
  std::unordered_map<std::string, std::shared_future<exact::MappingResult>> in_flight_;
};

}  // namespace qxmap::api
