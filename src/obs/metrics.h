// Process-wide metrics registry — named counters, gauges, and histograms
// replacing the scattered per-layer stats structs as the one queryable
// surface for "what happened during this run".
//
// The per-layer structs (LaunchStats, KernelOutcome, RuntimeStats,
// ResilienceStats, MemoryStats) keep their roles as per-call return values;
// the registry is the cross-layer AGGREGATE mirrored at the same accounting
// points, so its totals bit-match them (asserted in tests/test_obs.cpp).
//
// Like tracing, metrics are opt-in: the registry is disabled by default and
// every instrumentation site gates on enabled() (one relaxed atomic load),
// so benches keep identical wall-clock with observability off. Counter
// handles returned by counter() are stable for the process lifetime —
// hot paths cache them in static references.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/types.h"

namespace fusedml::obs {

/// Monotonic counter (atomic; reset() rewinds to zero without invalidating
/// handles).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins floating-point gauge; also supports accumulation for
/// modeled-milliseconds totals.
class Gauge {
 public:
  void set(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ = v;
  }
  void add(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ += v;
  }
  double value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }
  void reset() { set(0.0); }

 private:
  mutable std::mutex mutex_;
  double value_ = 0.0;
};

/// Bounded-memory histogram: count / sum / min / max are exact; quantiles
/// come from a fixed-size reservoir (Vitter's algorithm R with a
/// deterministic LCG stream, so single-threaded runs reproduce bit-exactly).
/// Below kReservoirCapacity observations the reservoir holds EVERY sample
/// and percentile() is the exact nearest-rank quantile (an observed value,
/// never interpolated: p50 of 1..100 is 50); past it each new observation
/// replaces a uniformly-chosen slot, so memory stays O(1) under chaos soaks
/// that push millions of latencies through one histogram. percentile() on an empty
/// histogram returns 0 instead of indexing into an empty sample vector.
class Histogram {
 public:
  static constexpr usize kReservoirCapacity = 512;

  void observe(double v);
  std::uint64_t count() const;
  double mean() const;
  double percentile(double p) const;
  double min() const;
  double max() const;
  void reset();

  /// Retained reservoir size (== count() until the cap, then constant).
  usize reservoir_size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> reservoir_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;  ///< deterministic LCG state
};

class MetricsRegistry {
 public:
  void enable() { enabled_.store(true, std::memory_order_release); }
  void disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Get-or-create by name. Handles stay valid for the process lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Rewinds every metric to zero (handles stay valid).
  void reset();

  /// Human table, one row per metric, sorted by name.
  Table to_table() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, mean,
  /// p50, p95, max}}}.
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry all layers record into.
MetricsRegistry& metrics();

/// Convenience: turn the whole observability subsystem (trace recorder +
/// metrics registry) on/off together.
void enable_profiling(usize trace_capacity = 1 << 16);
void disable_profiling();

}  // namespace fusedml::obs
