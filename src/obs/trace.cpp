#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <ostream>
#include <sstream>

namespace qxmap::obs {

namespace detail {

namespace {
bool enabled_from_env() {
  const char* v = std::getenv("QXMAP_TRACE");
  if (v == nullptr) return false;
  const std::string s(v);
  return !(s.empty() || s == "0" || s == "off" || s == "false" || s == "OFF" || s == "FALSE");
}
}  // namespace

std::atomic<bool> g_trace_enabled{enabled_from_env()};

}  // namespace detail

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

TraceRecorder::ThreadState& TraceRecorder::thread_state() {
  thread_local ThreadState state;
  return state;
}

std::uint64_t TraceRecorder::now_ns() {
  // One process-wide epoch so timestamps from all threads share an origin.
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           epoch)
          .count());
}

void TraceRecorder::start_chunk(ThreadState& state) {
  auto chunk = std::make_unique<Chunk>();
  Chunk* raw = chunk.get();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!state.has_tid) {
    state.tid = next_tid_++;
    state.has_tid = true;
  }
  chunks_.push_back(std::move(chunk));
  state.chunk = raw;
  state.epoch = epoch_.load(std::memory_order_relaxed);
}

void TraceRecorder::append(TraceEvent&& event) {
  ThreadState& state = thread_state();
  const std::uint64_t current_epoch = epoch_.load(std::memory_order_relaxed);
  if (state.chunk == nullptr || state.epoch != current_epoch ||
      state.chunk->count.load(std::memory_order_relaxed) >= Chunk::kCapacity) {
    start_chunk(state);
  }
  event.tid = state.tid;
  Chunk& chunk = *state.chunk;
  const std::uint32_t slot = chunk.count.load(std::memory_order_relaxed);
  chunk.events[slot] = std::move(event);
  // Publish: exporters acquire-load count, so the event above is fully
  // visible before it becomes part of the snapshot.
  chunk.count.store(slot + 1, std::memory_order_release);
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& chunk : chunks_) total += chunk->count.load(std::memory_order_acquire);
  return total;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Chunks are retired, never freed: a worker thread may still hold a
  // thread-local pointer into one and complete an in-flight append. The
  // epoch bump makes every thread start a fresh chunk on its next append.
  for (auto& chunk : chunks_) retired_chunks_.push_back(std::move(chunk));
  chunks_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& chunk : chunks_) {
      const std::uint32_t n = chunk->count.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < n; ++i) events.push_back(chunk->events[i]);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_ns < b.ts_ns; });
  return events;
}

namespace {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Chrome wants microsecond floats; keep three decimals of sub-µs precision.
void write_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10) << static_cast<char>('0' + ns % 10);
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":";
    write_json_string(os, e.name);
    os << ",\"cat\":";
    write_json_string(os, e.category);
    os << ",\"ph\":\"" << e.phase << "\",\"ts\":";
    write_us(os, e.ts_ns);
    if (e.phase == 'X') {
      os << ",\"dur\":";
      write_us(os, e.dur_ns);
    } else if (e.phase == 'i') {
      os << ",\"s\":\"t\"";  // instant scope: thread
    }
    os << ",\"pid\":1,\"tid\":" << e.tid;
    if (!e.attrs.empty()) {
      os << ",\"args\":{";
      bool first_attr = true;
      for (const auto& [key, value] : e.attrs) {
        if (!first_attr) os << ",";
        first_attr = false;
        write_json_string(os, key);
        os << ":";
        write_json_string(os, value);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string TraceRecorder::chrome_json() const {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

void TraceRecorder::write_tree(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(&e);
  for (const auto& [tid, list] : by_tid) {
    os << "thread " << tid << ":\n";
    for (const TraceEvent* e : list) {
      for (std::uint32_t i = 0; i <= e->depth; ++i) os << "  ";
      os << e->name;
      if (e->phase == 'X') {
        os << "  " << e->dur_ns / 1000 << "." << (e->dur_ns / 100) % 10 << " us";
      } else {
        os << "  [instant]";
      }
      for (const auto& [key, value] : e->attrs) os << "  " << key << "=" << value;
      os << "\n";
    }
  }
}

std::string TraceRecorder::tree() const {
  std::ostringstream os;
  write_tree(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

void Span::begin(const char* name, const char* category,
                 std::atomic<std::uint64_t>* total_ns) {
  active_ = true;
  name_ = name;
  category_ = category;
  total_ns_ = total_ns;
  TraceRecorder::ThreadState& state = TraceRecorder::thread_state();
  depth_ = state.depth++;
  start_ns_ = TraceRecorder::now_ns();
}

void Span::end() {
  const std::uint64_t end_ns = TraceRecorder::now_ns();
  TraceRecorder::ThreadState& state = TraceRecorder::thread_state();
  // The matching decrement for begin()'s increment; spans are stack-scoped
  // so begins/ends nest properly per thread.
  state.depth = depth_;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.ts_ns = start_ns_;
  event.dur_ns = end_ns - start_ns_;
  if (total_ns_ != nullptr) total_ns_->fetch_add(event.dur_ns, std::memory_order_relaxed);
  event.depth = depth_;
  event.phase = 'X';
  event.attrs = std::move(attrs_);
  TraceRecorder::instance().append(std::move(event));
}

void Span::attr(std::string_view key, std::string_view value) {
  if (!active_) return;
  attrs_.emplace_back(std::string(key), std::string(value));
}

void Span::attr(std::string_view key, long long value) {
  if (!active_) return;
  attrs_.emplace_back(std::string(key), std::to_string(value));
}

void Span::attr(std::string_view key, unsigned long long value) {
  if (!active_) return;
  attrs_.emplace_back(std::string(key), std::to_string(value));
}

void Span::attr(std::string_view key, double value) {
  if (!active_) return;
  std::ostringstream os;
  os << value;
  attrs_.emplace_back(std::string(key), os.str());
}

void Span::attr(std::string_view key, bool value) {
  if (!active_) return;
  attrs_.emplace_back(std::string(key), value ? "true" : "false");
}

void Span::instant(const char* name, const char* category,
                   std::vector<std::pair<std::string, std::string>> attrs) {
  if (!TraceRecorder::enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.ts_ns = TraceRecorder::now_ns();
  event.depth = TraceRecorder::thread_state().depth;
  event.phase = 'i';
  event.attrs = std::move(attrs);
  TraceRecorder::instance().append(std::move(event));
}

}  // namespace qxmap::obs
