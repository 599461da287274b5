// Host-time spans recorded by the benchmark around its calls into each
// layer of the library (la, kernels, vgpu, ml, sysml, serve).
//
// Spans are kept in memory and written out once, at the end of a traced
// run, in the Chrome/Perfetto trace_event JSON the library's obs exporter
// uses (timestamps here are HOST microseconds since process start, not
// modeled time). All spans are recorded from the benchmark's own thread,
// so the log takes no lock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host milliseconds since the first call in this process.
double now_ms();

struct Span {
  std::string name;   ///< e.g. "kernels.pattern", "ml.glm", "item"
  std::string layer;  ///< the module whose call the span covers
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;           ///< index into the log, -1 for a root
  std::uint64_t item = 0;    ///< spans of one item share this id
  int lane = 0;  ///< trace row; overlapping items (in-flight requests) differ
  /// True when the library measured the duration itself (e.g.
  /// KernelOutcome.wall_ms) and only the placement inside the parent is
  /// inferred: such a span is laid out to end where its parent ends.
  bool derived = false;
  std::vector<std::pair<std::string, double>> args;  ///< returned counters

  double dur_ms() const { return end_ms - start_ms; }
  double arg(const std::string& key) const;
};

class SpanLog {
 public:
  /// Opens a span now; returns its id.
  int begin(std::string name, std::string layer, std::uint64_t item,
            int parent);
  void end(int id);
  void arg(int id, std::string key, double value);
  void set_lane(int id, int lane);
  /// A child of `parent` whose duration the library measured internally.
  int derived(std::string name, std::string layer, int parent,
              double dur_ms);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }

  /// Per layer: sum over the spans of timed items (item != 0) of the
  /// duration not covered by child spans (self time), in ms.
  std::map<std::string, double> self_ms_by_layer() const;
  // Aggregates over the timed items' spans (item != 0) named `name`;
  // set-up, warm-up and reference spans carry item 0.
  int count(const std::string& name) const;
  double total_ms(const std::string& name) const;
  double total_arg(const std::string& name, const std::string& key) const;

  /// Writes {"displayTimeUnit":..., "traceEvents":[...]} to `path`.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it a no-op, which is how untraced runs
/// avoid any tracing cost beyond one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer,
             std::uint64_t item, int parent = -1)
      : log_(log),
        id_(log ? log->begin(std::move(name), std::move(layer), item, parent)
                : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void arg(std::string key, double value) {
    if (log_) log_->arg(id_, std::move(key), value);
  }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
