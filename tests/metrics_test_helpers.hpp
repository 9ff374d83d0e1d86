/// Registry reads for the suites that count library events (service,
/// executor, swap-cost cache). Library metrics are process-wide, so tests
/// assert on the change over their own work, never on absolute values; that
/// keeps them valid both under ctest (one process per test) and when a whole
/// gtest binary runs in one process. The lookups never register a metric:
/// the library registers its own (and fixes their help text), so each helper
/// throws when `name` is not registered yet instead of creating it.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace qxmap::testutil {

inline obs::MetricsRegistry& library_registry(const std::string& name) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  if (reg.prometheus_text().find("# HELP " + name + ' ') == std::string::npos) {
    throw std::logic_error("metric " + name + " is not registered by the library yet");
  }
  return reg;
}

inline obs::Counter& library_counter(const std::string& name) {
  return library_registry(name).counter(name, "");
}

inline obs::Gauge& library_gauge(const std::string& name) {
  return library_registry(name).gauge(name, "");
}

inline obs::Histogram& library_histogram(const std::string& name) {
  return library_registry(name).histogram(name, "");
}

/// A library counter's increase since this object was constructed.
class CounterDelta {
 public:
  explicit CounterDelta(const std::string& name)
      : counter_(library_counter(name)), start_(counter_.value()) {}
  [[nodiscard]] std::uint64_t operator()() const { return counter_.value() - start_; }

 private:
  const obs::Counter& counter_;
  std::uint64_t start_;
};

}  // namespace qxmap::testutil
