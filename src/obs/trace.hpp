/// \file trace.hpp
/// Per-request span tracing with Chrome-trace export.
///
/// The process-wide `TraceRecorder` collects timed **spans** (RAII `Span`
/// objects carrying a name, a category, the recording thread, start time,
/// duration, and key→value attributes) and zero-duration **instant events**
/// (solver restarts, bound-tightening aborts, steal decisions) from every
/// layer of the library: QASM parse, subset enumeration, per-shard
/// encode/solve, executor queue pops, CDCL milestones, Z3 sliced re-checks,
/// heuristic iterations, and the service front-end's request lifecycle.
/// One `MappingService::map()` call therefore shows up as a request span
/// whose shard spans fan out across the executor's worker threads.
///
/// Export formats:
///  * `write_chrome_json()` — the Chrome trace-event format; load the file
///    in `chrome://tracing` (or https://ui.perfetto.dev) for a per-thread
///    timeline with span nesting.
///  * `write_tree()` — a human-readable per-thread tree dump (indentation =
///    span nesting, reconstructed from the recorded depth).
///
/// Overhead contract:
///  * **Disabled (default): near-zero.** Constructing a `Span` is a single
///    relaxed atomic load plus a branch — no allocation, no clock read, no
///    lock. `attr()` and the destructor see an inactive span and return
///    immediately. The only always-on cost anywhere in the library is that
///    one load.
///  * **Enabled: lock-free recording.** Each thread appends completed
///    events to its own chunk buffer; the event is fully constructed before
///    the chunk's count is published with a release store, so exporters
///    (acquire loads) never observe a half-written event. The process-wide
///    mutex is taken only when a thread starts a fresh chunk (every
///    `Chunk::kCapacity` events) — appends themselves never contend.
///
/// Enabling: set the environment variable `QXMAP_TRACE` (any value except
/// `0` / `off` / `false`) before process start, or call
/// `TraceRecorder::set_enabled(true)` / `apply(TraceOptions)` at runtime.
///
/// Determinism caveat: trace contents (event counts, timestamps, thread
/// attribution) depend on machine speed and scheduling. Like
/// `MappingResult::bound_polls`, traces are observability artefacts and are
/// explicitly **outside** the bit-identical determinism contract
/// (docs/concurrency.md) — enabling tracing never changes any mapping
/// result, only what is recorded about how it was computed.
/// docs/observability.md has the span taxonomy and the full contract.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace qxmap::obs {

namespace detail {
/// The global enable flag, initialised from `QXMAP_TRACE`. A plain namespace
/// atomic (not a singleton member) so the disabled-path check in Span's
/// inline constructor touches nothing else.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// One recorded event. `phase` follows the Chrome trace-event convention:
/// 'X' = complete span (ts + dur), 'i' = instant event.
struct TraceEvent {
  std::string name;
  const char* category = "";  ///< call sites pass string literals
  std::uint64_t ts_ns = 0;    ///< start, relative to the recorder's epoch
  std::uint64_t dur_ns = 0;   ///< 0 for instant events
  std::uint32_t tid = 0;      ///< small per-thread id (registration order)
  std::uint32_t depth = 0;    ///< span-nesting depth on the recording thread
  char phase = 'X';
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Runtime tracing configuration (the programmatic face of `QXMAP_TRACE`).
struct TraceOptions {
  bool enabled = false;
};

class Span;

/// Process-wide trace collector. All methods are thread-safe; recording is
/// lock-free per thread (see the file comment).
class TraceRecorder {
 public:
  /// The process-wide recorder every Span reports to.
  [[nodiscard]] static TraceRecorder& instance();

  /// Whether spans are being recorded. A single relaxed load — callers may
  /// consult it on hot paths to skip attribute computation.
  [[nodiscard]] static bool enabled() noexcept {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Flips recording on/off. Spans already open keep recording their close
  /// (activity is decided once, at construction); new spans observe the flag
  /// immediately (relaxed — see docs/concurrency.md#trace-event-memory-ordering).
  static void set_enabled(bool on) noexcept {
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
  }

  void apply(const TraceOptions& options) noexcept { set_enabled(options.enabled); }

  /// Events recorded (and not cleared) so far, across all threads.
  [[nodiscard]] std::size_t event_count() const;

  /// Retires every recorded event: subsequent exports see only events
  /// recorded after the clear. Safe concurrently with recording — retired
  /// buffers stay allocated until process exit, so in-flight appends on
  /// other threads land harmlessly in memory the exporter ignores.
  void clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}): load in
  /// chrome://tracing. Events are sorted by start time.
  void write_chrome_json(std::ostream& os) const;
  [[nodiscard]] std::string chrome_json() const;

  /// Human-readable per-thread span tree (indentation = nesting).
  void write_tree(std::ostream& os) const;
  [[nodiscard]] std::string tree() const;

  /// All live (non-retired) events, sorted by start time. The test seam for
  /// structural assertions; exporters are built on it.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  friend class Span;

  struct Chunk {
    static constexpr std::size_t kCapacity = 256;
    std::atomic<std::uint32_t> count{0};
    std::array<TraceEvent, kCapacity> events;
  };

  struct ThreadState {
    Chunk* chunk = nullptr;
    std::uint64_t epoch = 0;
    std::uint32_t tid = 0;
    bool has_tid = false;
    std::uint32_t depth = 0;
  };

  TraceRecorder() = default;

  [[nodiscard]] static ThreadState& thread_state();
  /// Nanoseconds since the process-wide trace epoch (first use).
  [[nodiscard]] static std::uint64_t now_ns();

  /// Appends one completed event to the calling thread's chunk (lock-free;
  /// takes mutex_ only to start a fresh chunk).
  void append(TraceEvent&& event);
  void start_chunk(ThreadState& state);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Chunk>> chunks_;          // live, exported
  std::vector<std::unique_ptr<Chunk>> retired_chunks_;  // cleared; kept allocated
  std::atomic<std::uint64_t> epoch_{0};
  std::uint32_t next_tid_ = 0;
};

/// RAII span: records one 'X' event covering its lifetime. Construct on the
/// stack; attach attributes with attr(); the destructor publishes the event.
/// When tracing is disabled at construction the span is inert — no
/// allocation, no clock read — and stays inert even if tracing is enabled
/// before destruction (events are never half-recorded).
///
/// An optional `total_ns` accumulator receives the recorded duration when
/// the span closes (a relaxed add, so spans on several threads may share
/// one): callers that report per-phase wall time read it off the same clock
/// the trace shows instead of timing the scope a second time. An inert span
/// adds nothing.
class Span {
 public:
  Span(const char* name, const char* category,
       std::atomic<std::uint64_t>* total_ns = nullptr) {
    if (TraceRecorder::enabled()) begin(name, category, total_ns);
  }
  ~Span() {
    if (active_) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is recording (tracing was enabled at construction).
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Attaches a key→value attribute (no-ops on an inactive span).
  void attr(std::string_view key, std::string_view value);
  void attr(std::string_view key, const char* value) { attr(key, std::string_view(value)); }
  void attr(std::string_view key, long long value);
  void attr(std::string_view key, unsigned long long value);
  void attr(std::string_view key, int value) { attr(key, static_cast<long long>(value)); }
  void attr(std::string_view key, std::size_t value) {
    attr(key, static_cast<unsigned long long>(value));
  }
  void attr(std::string_view key, double value);
  void attr(std::string_view key, bool value);

  /// Records a zero-duration instant event at the current nesting depth.
  /// `attrs` may be empty. No-op while tracing is disabled.
  static void instant(const char* name, const char* category,
                      std::vector<std::pair<std::string, std::string>> attrs = {});

 private:
  void begin(const char* name, const char* category, std::atomic<std::uint64_t>* total_ns);
  void end();

  bool active_ = false;
  const char* name_ = "";
  const char* category_ = "";
  std::atomic<std::uint64_t>* total_ns_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

}  // namespace qxmap::obs
