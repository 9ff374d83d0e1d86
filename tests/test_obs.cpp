/// Tests for the observability layer (obs/trace.hpp, obs/metrics.hpp):
/// span nesting/ordering, attribute round-trip through the Chrome-trace
/// JSON export, the disabled-mode zero-span guarantee, a multi-thread
/// hammer over the lock-free per-thread buffers (run under TSan in CI),
/// and the metrics registry (counters, gauges, log-scale histograms,
/// Prometheus/JSON exposition, type-mismatch rejection), and the exact
/// mapper's per-phase `trace_summary` table.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/architectures.hpp"
#include "exact/exact_mapper.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::obs {
namespace {

/// Saves the recorder's enabled flag, clears the buffers, and restores the
/// flag on scope exit. Every trace test runs inside one of these so the
/// suite behaves identically whether CI sets QXMAP_TRACE=1 or not.
class ScopedTrace {
 public:
  explicit ScopedTrace(bool enable) : saved_(TraceRecorder::enabled()) {
    TraceRecorder::set_enabled(false);  // quiesce while clearing
    TraceRecorder::instance().clear();
    TraceRecorder::set_enabled(enable);
  }
  ~ScopedTrace() {
    TraceRecorder::set_enabled(saved_);
    TraceRecorder::instance().clear();
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  bool saved_;
};

TEST(ObsTrace, DisabledModeRecordsNothing) {
  ScopedTrace guard(false);
  {
    Span s("should.not.appear", "test");
    EXPECT_FALSE(s.active());
    s.attr("key", "value");  // must be a no-op, not a crash
    Span::instant("also.not.appear", "test", {{"k", "v"}});
  }
  EXPECT_EQ(TraceRecorder::instance().event_count(), 0u);
  EXPECT_TRUE(TraceRecorder::instance().snapshot().empty());
}

TEST(ObsTrace, SpanNestingAndOrdering) {
  ScopedTrace guard(true);
  {
    Span outer("outer", "test");
    EXPECT_TRUE(outer.active());
    {
      Span inner("inner", "test");
      { Span leaf("leaf", "test"); }
    }
    { Span sibling("sibling", "test"); }
  }
  const auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 4u);

  // Snapshot is sorted by start time: outer began first, then inner, leaf,
  // sibling (children close before parents, but ts is the *start*).
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "leaf");
  EXPECT_EQ(events[3].name, "sibling");

  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 2u);
  EXPECT_EQ(events[3].depth, 1u);

  // All on the same thread.
  for (const auto& e : events) EXPECT_EQ(e.tid, events[0].tid);

  // Containment: each child lies inside its parent's [ts, ts + dur).
  const auto inside = [](const TraceEvent& child, const TraceEvent& parent) {
    return child.ts_ns >= parent.ts_ns &&
           child.ts_ns + child.dur_ns <= parent.ts_ns + parent.dur_ns;
  };
  EXPECT_TRUE(inside(events[1], events[0]));
  EXPECT_TRUE(inside(events[2], events[1]));
  EXPECT_TRUE(inside(events[3], events[0]));
}

TEST(ObsTrace, InstantEventsAndAttributes) {
  ScopedTrace guard(true);
  {
    Span s("work", "test");
    s.attr("str", std::string_view("hello"));
    s.attr("num", static_cast<long long>(-42));
    s.attr("unum", static_cast<unsigned long long>(7));
    s.attr("flag", true);
    s.attr("ratio", 0.5);
    Span::instant("milestone", "test", {{"bound", "12"}});
  }
  const auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Instant started after the span, so it sorts second.
  const TraceEvent& span = events[0].phase == 'X' ? events[0] : events[1];
  const TraceEvent& inst = events[0].phase == 'i' ? events[0] : events[1];
  EXPECT_EQ(span.name, "work");
  EXPECT_EQ(inst.name, "milestone");
  EXPECT_EQ(inst.dur_ns, 0u);

  ASSERT_EQ(span.attrs.size(), 5u);
  EXPECT_EQ(span.attrs[0].first, "str");
  EXPECT_EQ(span.attrs[0].second, "hello");
  EXPECT_EQ(span.attrs[1].second, "-42");
  EXPECT_EQ(span.attrs[2].second, "7");
  EXPECT_EQ(span.attrs[3].second, "true");
  ASSERT_EQ(inst.attrs.size(), 1u);
  EXPECT_EQ(inst.attrs[0].first, "bound");
  EXPECT_EQ(inst.attrs[0].second, "12");
}

TEST(ObsTrace, AttributeRoundTripChromeJson) {
  ScopedTrace guard(true);
  {
    Span s("json.span", "cat1");
    s.attr("plain", "value");
    s.attr("quoted", "say \"hi\"\n\ttab\\slash");
  }
  const std::string json = TraceRecorder::instance().chrome_json();

  // Structurally a Chrome trace: one object with a traceEvents array.
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json.span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);

  // Attributes land in args with JSON escaping applied.
  EXPECT_NE(json.find("\"plain\":\"value\""), std::string::npos);
  EXPECT_NE(json.find("\"quoted\":\"say \\\"hi\\\"\\n\\ttab\\\\slash\""), std::string::npos);
}

TEST(ObsTrace, TreeDumpShowsNestingByIndentation) {
  ScopedTrace guard(true);
  {
    Span outer("parent.op", "test");
    Span inner("child.op", "test");
  }
  const std::string tree = TraceRecorder::instance().tree();
  const auto parent_at = tree.find("parent.op");
  const auto child_at = tree.find("  child.op");
  EXPECT_NE(parent_at, std::string::npos);
  EXPECT_NE(child_at, std::string::npos);
  EXPECT_LT(parent_at, child_at);
}

TEST(ObsTrace, ClearResetsEventsAndKeepsRecording) {
  ScopedTrace guard(true);
  { Span s("before.clear", "test"); }
  EXPECT_EQ(TraceRecorder::instance().event_count(), 1u);
  TraceRecorder::instance().clear();
  EXPECT_EQ(TraceRecorder::instance().event_count(), 0u);
  { Span s("after.clear", "test"); }
  const auto events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after.clear");
}

TEST(ObsTrace, EightThreadHammer) {
  ScopedTrace guard(true);
  constexpr int kThreads = 8;
  // Enough spans per thread to roll each thread through several chunks.
  constexpr int kSpansPerThread = 1500;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span s("hammer", "test");
        s.attr("thread", static_cast<long long>(t));
        s.attr("i", static_cast<long long>(i));
        if (i % 100 == 0) Span::instant("hammer.tick", "test");
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto events = TraceRecorder::instance().snapshot();
  const std::size_t expected =
      static_cast<std::size_t>(kThreads) * (kSpansPerThread + kSpansPerThread / 100);
  EXPECT_EQ(events.size(), expected);

  // Start times are non-decreasing per thread (each thread's spans are
  // sequential) and every event carries a stable thread id.
  std::vector<std::uint64_t> last_ts(64, 0);
  std::vector<int> per_tid(64, 0);
  for (const auto& e : events) {
    ASSERT_LT(e.tid, 64u);
    EXPECT_GE(e.ts_ns, last_ts[e.tid]);
    last_ts[e.tid] = e.ts_ns;
    ++per_tid[e.tid];
  }
  int active_tids = 0;
  for (const int c : per_tid) {
    if (c > 0) ++active_tids;
  }
  EXPECT_GE(active_tids, kThreads);  // main thread may or may not appear
}

TEST(ObsTrace, EnableDisableRace) {
  // Flipping the flag while spans are being created must be safe (the flag
  // is a relaxed atomic; a span samples it once at construction).
  ScopedTrace guard(true);
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    for (int i = 0; i < 200; ++i) {
      TraceRecorder::set_enabled(i % 2 == 0);
    }
    TraceRecorder::set_enabled(true);
    stop.store(true);
  });
  while (!stop.load()) {
    Span s("flicker", "test");
    s.attr("k", "v");
  }
  flipper.join();
  // No crash and a consistent snapshot is the assertion.
  const auto events = TraceRecorder::instance().snapshot();
  for (const auto& e : events) EXPECT_EQ(e.name, "flicker");
}

TEST(ObsTrace, ExactTraceSummaryFollowsTracing) {
  // A CNOT cycle on 3 qubits costs > 0 on every connected 3-subset of QX4
  // (none has a cyclically directed triangle), so no subset is skipped and
  // every phase of the multi-instance pipeline runs (no warm start there;
  // its line is still printed).
  Circuit c(3, "trace-summary");
  for (int rep = 0; rep < 2; ++rep) {
    c.h(rep);
    c.cnot(0, 1);
    c.cnot(1, 2);
    c.cnot(2, 0);
  }
  exact::ExactOptions opt;
  opt.engine = reason::EngineKind::Cdcl;
  opt.use_subsets = true;
  opt.num_threads = 2;
  opt.budget = std::chrono::milliseconds(60000);
  {
    ScopedTrace guard(true);
    const auto res = exact::map_exact(c, arch::ibm_qx4(), opt);
    ASSERT_GT(res.instances_solved, 1);
    const std::string& table = res.trace_summary;
    for (const char* phase : {"subsets", "warm_start", "prefix", "encode*", "solve*",
                              "canonical_resolve", "reconstruct", "verify", "total"}) {
      std::string row = "\n";
      row += phase;
      EXPECT_NE(("\n" + table).find(row + " "), std::string::npos) << phase << "\n" << table;
    }
    EXPECT_NE(table.find(" ms\n"), std::string::npos) << table;
  }
  {
    ScopedTrace guard(false);
    const auto res = exact::map_exact(c, arch::ibm_qx4(), opt);
    EXPECT_TRUE(res.trace_summary.empty()) << res.trace_summary;
  }
}

TEST(ObsMetrics, CounterGaugeBasics) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("qxmap_test_counter_total", "test counter");
  const auto base = c.value();
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), base + 5);
  // Same name returns the same object.
  EXPECT_EQ(&reg.counter("qxmap_test_counter_total", "ignored"), &c);

  Gauge& g = reg.gauge("qxmap_test_gauge", "test gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set_max(5);
  EXPECT_EQ(g.value(), 7);  // lower value does not regress the max
  g.set_max(19);
  EXPECT_EQ(g.value(), 19);
}

TEST(ObsMetrics, HistogramLogScaleBuckets) {
  auto& reg = MetricsRegistry::instance();
  Histogram& h = reg.histogram("qxmap_test_histogram", "test histogram");
  const auto base_count = h.count();
  const auto base_sum = h.sum();

  // Bucket upper bounds are powers of two: observe(v) lands in the first
  // bucket with bound >= v.
  EXPECT_EQ(Histogram::bucket_bound(0), 1u);
  EXPECT_EQ(Histogram::bucket_bound(1), 2u);
  EXPECT_EQ(Histogram::bucket_bound(10), 1024u);

  h.observe(0);
  h.observe(1);     // both land in bucket 0 (le 1)
  h.observe(2);     // bucket 1 (le 2)
  h.observe(3);     // bucket 2 (le 4)
  h.observe(1024);  // bucket 10 (le 1024)
  h.observe(1025);  // bucket 11 (le 2048)

  EXPECT_EQ(h.count(), base_count + 6);
  EXPECT_EQ(h.sum(), base_sum + 0 + 1 + 2 + 3 + 1024 + 1025);
  EXPECT_GE(h.bucket_count(0), 2u);
  EXPECT_GE(h.bucket_count(1), 1u);
  EXPECT_GE(h.bucket_count(2), 1u);
  EXPECT_GE(h.bucket_count(10), 1u);
  EXPECT_GE(h.bucket_count(11), 1u);
}

TEST(ObsMetrics, TypeMismatchAndBadNamesThrow) {
  auto& reg = MetricsRegistry::instance();
  (void)reg.counter("qxmap_test_kind_total", "a counter");
  EXPECT_THROW((void)reg.gauge("qxmap_test_kind_total", "same name, wrong kind"),
               std::logic_error);
  EXPECT_THROW((void)reg.histogram("qxmap_test_kind_total", "same name, wrong kind"),
               std::logic_error);
  EXPECT_THROW((void)reg.counter("0starts_with_digit", "bad"), std::logic_error);
  EXPECT_THROW((void)reg.counter("has space", "bad"), std::logic_error);
  EXPECT_THROW((void)reg.counter("", "bad"), std::logic_error);
}

TEST(ObsMetrics, PrometheusExposition) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("qxmap_test_prom_total", "prom help text");
  c.inc(3);
  Gauge& g = reg.gauge("qxmap_test_prom_gauge", "gauge help");
  g.set(11);
  Histogram& h = reg.histogram("qxmap_test_prom_hist", "hist help");
  h.observe(5);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP qxmap_test_prom_total prom help text"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qxmap_test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("qxmap_test_prom_total "), std::string::npos);
  EXPECT_NE(text.find("# TYPE qxmap_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("qxmap_test_prom_gauge 11"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qxmap_test_prom_hist histogram"), std::string::npos);
  // 5 lands in the le=8 bucket; the +Inf bucket and sum/count are mandatory.
  EXPECT_NE(text.find("qxmap_test_prom_hist_bucket{le=\"8\"}"), std::string::npos);
  EXPECT_NE(text.find("qxmap_test_prom_hist_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(text.find("qxmap_test_prom_hist_sum"), std::string::npos);
  EXPECT_NE(text.find("qxmap_test_prom_hist_count"), std::string::npos);
}

TEST(ObsMetrics, JsonSnapshot) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("qxmap_test_json_total", "json help");
  c.inc(2);
  Histogram& h = reg.histogram("qxmap_test_json_hist", "json histogram");
  h.observe(3);
  const std::string json = reg.json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"qxmap_test_json_total\": "), std::string::npos);
  // Histograms serialise as an object with cumulative buckets + +Inf.
  EXPECT_NE(json.find("\"qxmap_test_json_hist\": {\"count\": "), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\": "), std::string::npos);
}

TEST(ObsMetrics, ConcurrentIncrements) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("qxmap_test_mt_total", "concurrent counter");
  Histogram& h = reg.histogram("qxmap_test_mt_hist", "concurrent histogram");
  const auto base = c.value();
  const auto base_count = h.count();

  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(t * kIters + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), base + static_cast<long long>(kThreads) * kIters);
  EXPECT_EQ(h.count(), base_count + static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace qxmap::obs
