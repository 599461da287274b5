#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/json.h"
#include "obs/trace.h"

namespace fusedml::obs {

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  if (reservoir_.size() < kReservoirCapacity) {
    reservoir_.push_back(v);
    return;
  }
  // Vitter's algorithm R: replace a uniform slot of [0, count_) — keeps the
  // reservoir a uniform sample of everything observed, in O(1) memory.
  rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::uint64_t j = (rng_ >> 16) % count_;
  if (j < reservoir_.size()) reservoir_[j] = v;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::percentile(double p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (reservoir_.empty()) return 0.0;  // empty histogram: no samples to rank
  // Nearest rank: the smallest retained sample with at least p% of the
  // samples at or below it — always an observed value, never interpolated.
  std::vector<double> sorted = reservoir_;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  const auto rank =
      static_cast<usize>(std::ceil(std::clamp(p, 0.0, 100.0) * n / 100.0));
  return sorted[std::max<usize>(rank, 1) - 1];
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_ == 0 ? 0.0 : min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_ == 0 ? 0.0 : max_;
}

usize Histogram::reservoir_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reservoir_.size();
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  reservoir_.clear();
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  rng_ = 0x9e3779b97f4a7c15ULL;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Table MetricsRegistry::to_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Table t({"metric", "kind", "value", "p50", "p95", "max"});
  for (const auto& [name, c] : counters_) {
    t.row().add(name).add("counter").add(static_cast<std::size_t>(c->value()));
    t.add("-").add("-").add("-");
  }
  for (const auto& [name, g] : gauges_) {
    t.row().add(name).add("gauge").add(g->value(), 4);
    t.add("-").add("-").add("-");
  }
  for (const auto& [name, h] : histograms_) {
    t.row().add(name).add("histogram");
    t.add(static_cast<std::size_t>(h->count()));
    t.add(h->percentile(50.0), 4).add(h->percentile(95.0), 4).add(h->max(), 4);
  }
  return t;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter json(os);
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, c] : counters_) json.member(name, c->value());
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) json.member(name, g->value());
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    json.key(name).begin_object();
    json.member("count", h->count());
    json.member("mean", h->mean());
    json.member("p50", h->percentile(50.0));
    json.member("p95", h->percentile(95.0));
    json.member("max", h->max());
    json.end_object();
  }
  json.end_object();
  json.end_object();
  os << "\n";
}

MetricsRegistry& metrics() {
  static MetricsRegistry instance;
  return instance;
}

void enable_profiling(usize trace_capacity) {
  recorder().enable(trace_capacity);
  metrics().enable();
  metrics().reset();
}

void disable_profiling() {
  recorder().disable();
  metrics().disable();
}

}  // namespace fusedml::obs
