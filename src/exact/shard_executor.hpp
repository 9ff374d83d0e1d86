/// \file shard_executor.hpp
/// Process-wide executor for subset-instance shards.
///
/// PR 2 gave every `map_exact` call its own worker pool; under service
/// traffic (many concurrent `map()` calls, api/service.hpp) that
/// oversubscribes the machine with one pool per request and lets no
/// request's scheduling see another's. This executor replaces the per-call
/// pools with **one** shared pool: every request submits its instance
/// tasks with per-task priorities, and all requests' shards interleave
/// through a single hardest-first queue (a `std::multiset` ordered by
/// (priority, request, index) — the same ordering the per-call scheduler
/// used, now global).
///
/// Contracts:
///  * **Per-request cap.** A request's `max_concurrency` bounds how many of
///    its tasks run simultaneously — `ExactOptions::num_threads` keeps its
///    meaning. The pool grows so the cap is attainable (`cap - 1` workers
///    plus the submitting caller, which executes its own request's tasks
///    inside `run_to_completion`), so explicit parallelism requests are
///    honoured even on fewer cores, exactly like the old per-call pools.
///  * **Determinism.** The executor adds no result-affecting state: which
///    thread runs a shard, and when, was already outside the determinism
///    argument (docs/concurrency.md#determinism-argument) — results depend
///    only on the per-request reduction, which is unchanged.
///  * **No abandoned work.** Destruction (including static destruction at
///    process exit) drains the queue, runs every remaining task, and joins
///    every worker — no detached thread can outlive the executor and touch
///    freed caches. The singleton constructor touches
///    `arch::SwapCostCache::instance()` first, so the cache outlives the
///    executor's threads by static-destruction order.
///  * **Deadlock freedom.** The submitting thread is always able to execute
///    its own request's tasks, so a request completes even with a pool of
///    zero threads, and nested submissions cannot form a circular wait.
///
/// Tasks must not throw for control flow, but a throwing task is contained:
/// the first exception is captured per request and rethrown from
/// `run_to_completion` after the request's remaining tasks ran.
///
/// Tallies (batches, tasks submitted/executed/failed, threads spawned,
/// steals, queue depth and its high-water mark, queue-wait and run-time
/// histograms) live on `obs::MetricsRegistry` as `qxmap_executor_*`,
/// summed over every executor in the process (docs/observability.md).
/// `bench_service --smoke` reads `qxmap_executor_tasks_executed_total` as
/// its "warm hits spawn no shard work" witness.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace qxmap::exact {

/// Shared worker pool with a priority-ordered task queue. All operations
/// are thread-safe; see the file comment for the contracts.
class ShardExecutor {
 public:
  /// One unit of work; receives the task index passed at submit time.
  using TaskFn = std::function<void(std::size_t)>;

  /// Handle to a submitted batch of tasks. Opaque; all state is guarded by
  /// the owning executor.
  class Request {
    friend class ShardExecutor;
    TaskFn fn;
    std::size_t cap = 1;        // max tasks of this request in flight
    std::size_t remaining = 0;  // tasks not yet finished
    std::size_t in_flight = 0;  // tasks currently executing
    std::uint64_t seq = 0;      // submission order (queue tie-break)
    std::thread::id submitter;  // trace-only: flags steals (other-thread runs)
    std::exception_ptr error;   // first task exception, if any
  };

  /// \param num_threads workers to start with. 0 is allowed: tasks then run
  /// only on threads inside run_to_completion (useful for deterministic
  /// tests) until a request's cap grows the pool.
  explicit ShardExecutor(std::size_t num_threads);

  /// Drains the queue (every submitted task still runs), then joins all
  /// workers. Waiters in run_to_completion complete before this returns.
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// The process-wide instance used by map_exact. First use sizes the pool
  /// from `QXMAP_EXECUTOR_THREADS` (0 = caller-only), defaulting to the
  /// hardware concurrency.
  [[nodiscard]] static ShardExecutor& instance();

  /// Enqueues `priorities.size()` tasks; task i runs `fn(i)` exactly once.
  /// Lower priority values pop first (map_exact passes induced-subgraph
  /// edge counts, so sparse = hard instances lead; ties run in submission
  /// then index order). `max_concurrency` is clamped to [1, task count].
  /// \throws std::invalid_argument on an empty batch, std::runtime_error
  /// after shutdown began.
  [[nodiscard]] std::shared_ptr<Request> submit(TaskFn fn,
                                                const std::vector<long long>& priorities,
                                                std::size_t max_concurrency);

  /// Runs queued tasks of `request` on the calling thread (counting toward
  /// its cap) and blocks until every task of the request has finished.
  /// Rethrows the first exception a task of this request raised, after all
  /// of them ran.
  void run_to_completion(const std::shared_ptr<Request>& request);

  /// Resizes the base pool. Growing is immediate; shrinking drains the
  /// queue, joins every worker, and respawns `n` — call it between
  /// requests, not under load. Per-request cap growth can later exceed `n`
  /// again.
  void set_num_threads(std::size_t n);

  [[nodiscard]] std::size_t num_threads() const;

 private:
  struct QueuedTask {
    long long priority;
    std::uint64_t seq;
    std::size_t index;
    std::uint64_t enqueue_ns;  // steady-clock stamp; feeds the queue-wait histogram
    std::shared_ptr<Request> request;
  };
  struct TaskOrder {
    bool operator()(const QueuedTask& a, const QueuedTask& b) const noexcept {
      if (a.priority != b.priority) return a.priority < b.priority;
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.index < b.index;
    }
  };
  using Queue = std::multiset<QueuedTask, TaskOrder>;

  void worker_loop();
  /// First queued task whose request is under its cap (restricted to `only`
  /// when non-null); queue_.end() if none. Caller holds mutex_.
  [[nodiscard]] Queue::iterator find_eligible(const Request* only);
  /// Extracts and runs one task (fn outside the lock), then updates the
  /// request and wakes waiters. Caller holds `lock`; it is held again on
  /// return.
  void run_one(Queue::iterator it, std::unique_lock<std::mutex>& lock);
  /// Grows the pool to `target` workers. Caller holds mutex_.
  void spawn_to(std::size_t target);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Queue queue_;
  std::vector<std::thread> threads_;
  std::mutex resize_mutex_;  // serialises set_num_threads / destruction
  bool stopping_ = false;
  std::size_t busy_ = 0;  // threads inside run_to_completion (destructor waits)
  std::size_t base_threads_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace qxmap::exact
