/// Contract tests for the process-wide shard executor
/// (exact/shard_executor.hpp): exactly-once execution, priority pop order,
/// per-request concurrency caps, caller participation (deadlock freedom
/// with a zero-worker pool), pool growth to honour explicit caps on small
/// machines, exception containment, request interleaving, and the
/// shutdown-ordering regression — destruction with queued work drains
/// cleanly instead of abandoning tasks. Counts are read as deltas of the
/// process-wide `qxmap_executor_*` registry metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exact/shard_executor.hpp"
#include "metrics_test_helpers.hpp"

namespace qxmap::exact {
namespace {

using testutil::CounterDelta;

std::vector<long long> ascending(std::size_t n) {
  std::vector<long long> p(n);
  std::iota(p.begin(), p.end(), 0LL);
  return p;
}

TEST(ShardExecutor, RunsEveryTaskExactlyOnce) {
  ShardExecutor ex(3);
  const CounterDelta requests("qxmap_executor_requests_total");
  const CounterDelta submitted("qxmap_executor_tasks_submitted_total");
  const CounterDelta executed("qxmap_executor_tasks_executed_total");
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  auto req = ex.submit([&](std::size_t i) { ++runs[i]; }, ascending(kTasks), 4);
  ex.run_to_completion(req);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(requests(), 1u);
  EXPECT_EQ(submitted(), kTasks);
  EXPECT_EQ(executed(), kTasks);
}

TEST(ShardExecutor, SerialPopOrderFollowsPriorityThenIndex) {
  // Zero workers + cap 1: every task runs on this thread, strictly in queue
  // order, so the pop order is directly observable.
  ShardExecutor ex(0);
  std::vector<std::size_t> order;
  auto req = ex.submit([&](std::size_t i) { order.push_back(i); },
                       {30, 10, 20, 10, 0}, 1);
  ex.run_to_completion(req);
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 1, 3, 2, 0}));
}

TEST(ShardExecutor, CallerOnlyPoolCompletesWithoutWorkers) {
  ShardExecutor ex(0);
  EXPECT_EQ(ex.num_threads(), 0u);
  std::atomic<int> ran{0};
  ex.run_to_completion(ex.submit([&](std::size_t) { ++ran; }, ascending(8), 1));
  EXPECT_EQ(ran.load(), 8);
}

TEST(ShardExecutor, CapBoundsConcurrentTasksOfARequest) {
  ShardExecutor ex(6);
  constexpr std::size_t kCap = 2;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  auto req = ex.submit(
      [&](std::size_t) {
        const int now = ++running;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        --running;
      },
      ascending(12), kCap);
  ex.run_to_completion(req);
  EXPECT_LE(peak.load(), static_cast<int>(kCap));
  EXPECT_GE(peak.load(), 1);
}

TEST(ShardExecutor, PoolGrowsToHonourExplicitCap) {
  // A barrier that needs kCap tasks *simultaneously* inside the executor:
  // only reachable if the pool really provides cap-way concurrency, even
  // when the base pool (and the machine) is smaller.
  constexpr std::size_t kCap = 6;
  ShardExecutor ex(1);
  const CounterDelta spawned("qxmap_executor_threads_spawned_total");
  std::mutex m;
  std::condition_variable cv;
  std::size_t arrived = 0;
  auto req = ex.submit(
      [&](std::size_t) {
        std::unique_lock<std::mutex> lock(m);
        ++arrived;
        cv.notify_all();
        cv.wait(lock, [&] { return arrived >= kCap; });
      },
      ascending(kCap), kCap);
  ex.run_to_completion(req);
  EXPECT_EQ(arrived, kCap);
  EXPECT_GE(ex.num_threads(), kCap - 1);
  // The base worker was spawned by the constructor; the rest by growth.
  EXPECT_EQ(spawned(), ex.num_threads() - 1);
}

TEST(ShardExecutor, FirstExceptionIsRethrownAfterAllTasksRan) {
  ShardExecutor ex(2);
  std::atomic<int> ran{0};
  auto req = ex.submit(
      [&](std::size_t i) {
        ++ran;
        if (i == 0) throw std::runtime_error("boom");
      },
      ascending(10), 2);
  EXPECT_THROW(ex.run_to_completion(req), std::runtime_error);
  // Exception containment: the failing task does not cancel its siblings
  // (map_exact layers its own early-exit flag on top when it wants that).
  EXPECT_EQ(ran.load(), 10);
}

TEST(ShardExecutor, ConcurrentRequestsBothComplete) {
  ShardExecutor ex(2);
  const CounterDelta requests("qxmap_executor_requests_total");
  const CounterDelta executed("qxmap_executor_tasks_executed_total");
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread other([&] {
    ShardExecutor& shared = ex;
    shared.run_to_completion(shared.submit([&](std::size_t) { ++b; }, ascending(16), 2));
  });
  ex.run_to_completion(ex.submit([&](std::size_t) { ++a; }, ascending(16), 2));
  other.join();
  EXPECT_EQ(a.load(), 16);
  EXPECT_EQ(b.load(), 16);
  EXPECT_EQ(requests(), 2u);
  EXPECT_EQ(executed(), 32u);
}

TEST(ShardExecutor, EmptyBatchIsRejected) {
  ShardExecutor ex(1);
  EXPECT_THROW((void)ex.submit([](std::size_t) {}, {}, 1), std::invalid_argument);
}

// Regression: shutdown ordering. Destroying the executor with queued,
// never-awaited work used to be able to abandon tasks (and, at static
// destruction, let worker threads outlive caches they touch). The contract
// now is drain-then-join: every submitted task runs before the destructor
// returns, with no run_to_completion caller required — even on a pool with
// zero workers, where the destructing thread itself must pick up the queue.
TEST(ShardExecutorShutdown, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::shared_ptr<ShardExecutor::Request> req;
  {
    ShardExecutor ex(2);
    req = ex.submit([&](std::size_t) { ++ran; }, ascending(20), 2);
    // No run_to_completion: destruction must finish the work.
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(ShardExecutorShutdown, DestructorDrainsOnZeroWorkerPool) {
  std::atomic<int> ran{0};
  {
    ShardExecutor ex(0);
    (void)ex.submit([&](std::size_t) { ++ran; }, ascending(5), 1);
  }
  EXPECT_EQ(ran.load(), 5);
}

TEST(ShardExecutorShutdown, DestructionReleasesConcurrentWaiters) {
  // A waiter inside run_to_completion while the executor is being destroyed
  // must be released with its request fully executed, not deadlocked.
  std::atomic<int> ran{0};
  std::thread waiter;
  {
    ShardExecutor ex(1);
    auto req = ex.submit(
        [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          ++ran;
        },
        ascending(8), 1);
    waiter = std::thread([&ex, req] { ex.run_to_completion(req); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // Destructor runs here, concurrently with the waiter.
  }
  waiter.join();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ShardExecutorShutdown, SubmitAfterShutdownBeganIsRefused) {
  // set_num_threads(0) after a drain leaves a live, reusable executor; the
  // refusal path is only for submissions racing destruction, which we can
  // only exercise indirectly: a fresh executor accepts work again.
  ShardExecutor ex(1);
  ex.set_num_threads(0);
  std::atomic<int> ran{0};
  ex.run_to_completion(ex.submit([&](std::size_t) { ++ran; }, ascending(3), 1));
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(ex.num_threads(), 0u);
}

TEST(ShardExecutorShutdown, ResizeUpAndDownKeepsExecutingCorrectly) {
  ShardExecutor ex(0);
  std::atomic<int> ran{0};
  ex.set_num_threads(3);
  EXPECT_EQ(ex.num_threads(), 3u);
  ex.run_to_completion(ex.submit([&](std::size_t) { ++ran; }, ascending(12), 3));
  ex.set_num_threads(1);
  EXPECT_EQ(ex.num_threads(), 1u);
  ex.run_to_completion(ex.submit([&](std::size_t) { ++ran; }, ascending(12), 2));
  EXPECT_EQ(ran.load(), 24);
}

TEST(ShardExecutor, MetricsCountEveryTaskOfAFailingBatch) {
  // The registry metrics are summed over every executor in the process;
  // nothing else runs here, so the deltas over one batch are exact.
  constexpr std::size_t kTasks = 40;
  ShardExecutor ex(2);
  const CounterDelta requests("qxmap_executor_requests_total");
  const CounterDelta submitted("qxmap_executor_tasks_submitted_total");
  const CounterDelta executed("qxmap_executor_tasks_executed_total");
  const CounterDelta failed("qxmap_executor_tasks_failed_total");
  const obs::Histogram& wait = testutil::library_histogram("qxmap_executor_queue_wait_us");
  const obs::Histogram& run = testutil::library_histogram("qxmap_executor_task_run_us");
  const obs::Gauge& depth = testutil::library_gauge("qxmap_executor_queue_depth");
  const obs::Gauge& high_water = testutil::library_gauge("qxmap_executor_queue_depth_high_water");
  const auto wait0 = wait.count();
  const auto run0 = run.count();

  std::atomic<int> ran{0};
  auto req = ex.submit(
      [&](std::size_t i) {
        if (i == 7) throw std::runtime_error("planned failure");
        ++ran;
      },
      ascending(kTasks), 3);
  EXPECT_THROW(ex.run_to_completion(req), std::runtime_error);

  EXPECT_EQ(requests(), 1u);
  EXPECT_EQ(submitted(), kTasks);
  EXPECT_EQ(executed(), kTasks);
  EXPECT_EQ(failed(), 1u);
  // Every executed task observed one queue-wait and one run-time sample.
  EXPECT_EQ(wait.count() - wait0, kTasks);
  EXPECT_EQ(run.count() - run0, kTasks);
  // The whole batch sat queued once; the queue fully drained.
  EXPECT_GE(high_water.value(), static_cast<long long>(kTasks));
  EXPECT_EQ(depth.value(), 0);
}

TEST(ShardExecutorShutdown, ProcessWideInstanceIsUsable) {
  // The singleton map_exact uses: submitting through it and exiting the
  // test binary afterwards is itself the static-destruction regression
  // check (an abandoned thread or destroyed-cache access would crash or
  // trip TSan at exit).
  ShardExecutor& ex = ShardExecutor::instance();
  std::atomic<int> ran{0};
  ex.run_to_completion(ex.submit([&](std::size_t) { ++ran; }, ascending(4), 2));
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
}  // namespace qxmap::exact
