#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/json.h"

namespace perfbench {

double now_ms() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

double Span::arg(const std::string& key) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return 0.0;
}

int SpanLog::begin(std::string name, std::string layer, std::uint64_t item,
                   int parent) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.item = item;
  s.parent = parent;
  if (parent >= 0) s.lane = span(parent).lane;
  s.start_ms = now_ms();
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) { spans_[static_cast<size_t>(id)].end_ms = now_ms(); }

void SpanLog::arg(int id, std::string key, double value) {
  spans_[static_cast<size_t>(id)].args.emplace_back(std::move(key), value);
}

void SpanLog::set_lane(int id, int lane) {
  spans_[static_cast<size_t>(id)].lane = lane;
}

int SpanLog::derived(std::string name, std::string layer, int parent,
                     double dur_ms) {
  const Span& p = span(parent);
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.item = p.item;
  s.lane = p.lane;
  s.parent = parent;
  s.derived = true;
  s.end_ms = p.end_ms;
  s.start_ms = std::max(p.start_ms, p.end_ms - dur_ms);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ms,
                                                           s.end_ms);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.item == 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the span.
    double covered = 0.0;
    double run_lo = 0.0, run_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ms);
      hi = std::min(hi, s.end_ms);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[s.layer] += s.dur_ms() - covered;
  }
  return self;
}

int SpanLog::count(const std::string& name) const {
  int n = 0;
  for (const Span& s : spans_) {
    if (s.item != 0 && s.name == name) ++n;
  }
  return n;
}

double SpanLog::total_ms(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.item != 0 && s.name == name) t += s.dur_ms();
  }
  return t;
}

double SpanLog::total_arg(const std::string& name,
                          const std::string& key) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.item != 0 && s.name == name) t += s.arg(key);
  }
  return t;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  fusedml::JsonWriter json(os);
  json.begin_object();
  json.member("displayTimeUnit", "ms");
  json.key("traceEvents").begin_array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_object();
    json.member("name", s.name);
    json.member("cat", s.layer);
    json.member("ph", "X");
    json.member("pid", 1);
    json.member("tid", s.lane);
    json.member("ts", s.start_ms * 1000.0);  // Chrome traces use microseconds
    json.member("dur", s.dur_ms() * 1000.0);
    json.key("args").begin_object();
    json.member("span", static_cast<std::int64_t>(i));
    json.member("parent", static_cast<std::int64_t>(s.parent));
    json.member("item", s.item);
    if (s.derived) json.member("derived", true);
    for (const auto& [k, v] : s.args) json.member(k, v);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << "\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
