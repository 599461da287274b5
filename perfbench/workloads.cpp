#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "common/timer.h"
#include "kernels/op_registry.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "serve/server.h"
#include "spans.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

namespace perfbench {
namespace {

using fusedml::index_t;
using fusedml::real;
using fusedml::usize;
namespace kernels = fusedml::kernels;
namespace la = fusedml::la;
namespace ml = fusedml::ml;
namespace serve = fusedml::serve;
namespace sysml = fusedml::sysml;
namespace vgpu = fusedml::vgpu;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
/// Equation-1 outputs vs la::reference::pattern: the figure benches' bound.
constexpr double kPatternTolerance = 1e-6;

constexpr ml::Algorithm kAlgorithms[] = {
    ml::Algorithm::kLrCg,    ml::Algorithm::kLogregGd,
    ml::Algorithm::kGlm,     ml::Algorithm::kSvm,
    ml::Algorithm::kHits,    ml::Algorithm::kAls,
    ml::Algorithm::kKmeans,  ml::Algorithm::kPagerank,
    ml::Algorithm::kMinibatchLogreg};

/// The plan a planner-mode script must match bit for bit, as
/// tests/test_script_library.cpp pins it: the unfused interpretation,
/// except where the DAG holds an Equation-1 site. There the fused pattern
/// kernel re-associates the X^T reduction, the solvers' data-dependent
/// control flow amplifies the last-bit difference, and the contract is
/// planner ≡ hardcoded-pass (both fuse exactly the Equation-1 sites).
sysml::PlanMode reference_mode(ml::Algorithm a) {
  const bool has_eq1_site =
      a == ml::Algorithm::kLrCg || a == ml::Algorithm::kGlm ||
      a == ml::Algorithm::kSvm || a == ml::Algorithm::kHits;
  return has_eq1_site ? sysml::PlanMode::kHardcodedPass
                      : sysml::PlanMode::kUnfused;
}

enum class LabelKind { kNone, kRegression, kClassification, kCounts };

LabelKind labels_for(ml::Algorithm a) {
  switch (a) {
    case ml::Algorithm::kLrCg: return LabelKind::kRegression;
    case ml::Algorithm::kLogregGd:
    case ml::Algorithm::kSvm:
    case ml::Algorithm::kMinibatchLogreg: return LabelKind::kClassification;
    case ml::Algorithm::kGlm: return LabelKind::kCounts;
    default: return LabelKind::kNone;
  }
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename T>
std::uint64_t fnv1a(std::span<const T> xs, std::uint64_t h) {
  const auto* p = reinterpret_cast<const unsigned char*>(xs.data());
  for (usize i = 0; i < xs.size_bytes(); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  auto rank = static_cast<usize>(std::ceil(q * static_cast<double>(xs.size())));
  rank = std::clamp<usize>(rank, 1, xs.size());
  return xs[rank - 1];
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

/// Labels derived from X * w_true; the same generator serves CSR and dense.
template <typename Matrix>
std::vector<real> make_labels(const Matrix& X, LabelKind kind,
                              std::uint64_t seed) {
  if (kind == LabelKind::kNone) return {};
  const auto w = la::regression_true_weights(X.cols(), seed);
  std::vector<real> eta;
  if constexpr (std::is_same_v<Matrix, la::CsrMatrix>) {
    eta = la::reference::spmv(X, w);
  } else {
    eta = la::reference::gemv(X, w);
  }
  // Keep exp(eta) tame for the Poisson GLM whatever the column count.
  const real scale = real{0.3} / std::sqrt(static_cast<real>(X.cols()));
  fusedml::Rng rng(derive(seed, 1));
  std::vector<real> y(eta.size());
  for (usize i = 0; i < y.size(); ++i) {
    const real noise = static_cast<real>(rng.normal(0.0, 0.1));
    switch (kind) {
      case LabelKind::kRegression: y[i] = eta[i] + noise; break;
      case LabelKind::kClassification:
        y[i] = eta[i] + noise >= 0 ? real{1} : real{-1};
        break;
      case LabelKind::kCounts:
        y[i] = static_cast<real>(rng.poisson(std::exp(scale * eta[i])));
        break;
      case LabelKind::kNone: break;
    }
  }
  return y;
}

bool script_matches(std::span<const real> got, std::span<const real> ref) {
  return !ref.empty() && got.size() == ref.size() &&
         std::equal(got.begin(), got.end(), ref.begin());
}

bool pattern_matches(std::span<const real> got, std::span<const real> ref) {
  return got.size() == ref.size() &&
         la::max_abs_diff(ref, got) <= kPatternTolerance;
}

void attach_counters(SpanLog* log, int span, const vgpu::MemCounters& c) {
  if (log == nullptr) return;
  log->arg(span, "gld", static_cast<double>(c.gld_transactions));
  log->arg(span, "gst", static_cast<double>(c.gst_transactions));
  log->arg(span, "tex", static_cast<double>(c.tex_transactions));
  log->arg(span, "l2_hit", static_cast<double>(c.l2_hit_transactions));
  log->arg(span, "atomic_global",
           static_cast<double>(c.atomic_global_ops));
  log->arg(span, "smem_conflicts",
           static_cast<double>(c.smem_bank_conflicts));
}

vgpu::MemCounters counters_delta(const vgpu::MemCounters& after,
                                 const vgpu::MemCounters& before) {
  vgpu::MemCounters d;
  d.gld_transactions = after.gld_transactions - before.gld_transactions;
  d.gst_transactions = after.gst_transactions - before.gst_transactions;
  d.tex_transactions = after.tex_transactions - before.tex_transactions;
  d.l2_hit_transactions =
      after.l2_hit_transactions - before.l2_hit_transactions;
  d.atomic_global_ops = after.atomic_global_ops - before.atomic_global_ops;
  d.smem_bank_conflicts =
      after.smem_bank_conflicts - before.smem_bank_conflicts;
  return d;
}

std::uint64_t dram_transactions(const vgpu::MemCounters& c) {
  return c.gld_transactions + c.gst_transactions;
}

/// Timed items of one pass, in the order they were issued.
struct ItemRecord {
  double host_ms = 0.0;
  bool ok = false;
  double modeled_ms = 0.0;
};

struct Pass {
  std::vector<ItemRecord> items;
  /// Host time items_per_s divides by: the summed item times for a single
  /// caller, the generator loop's wall time for the concurrent server.
  double wall_ms = 0.0;
  /// Device totals over the pass's items.
  std::uint64_t launches = 0;
  std::uint64_t dram_transactions = 0;
  std::vector<std::string> errors;
};

using LayerMetrics = std::map<std::string, double>;

/// Sum of argument `key` over the spans `keep` selects.
template <typename Pred>
double sum_arg(const SpanLog& log, const std::string& key, Pred keep) {
  double sum = 0.0;
  for (const Span& s : log.spans()) {
    if (keep(s)) sum += s.arg(key);
  }
  return sum;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Data generation, registration or server start, and warm-up: exactly
  /// what setup_s measures. Each call replaces the previous set-up.
  virtual void setup(SpanLog* log) = 0;
  /// References the timed items are checked against (never timed).
  virtual void prepare_references(SpanLog* log) = 0;
  virtual Pass run(SpanLog* log, int perturb) = 0;
  virtual void layer_metrics(const SpanLog& log, const Pass& pass,
                             LayerMetrics& out) const = 0;
  virtual std::uint64_t input_digest() const = 0;
};

/// DRAM transaction size of the modeled device every workload runs on.
double transaction_bytes() {
  static const double bytes =
      static_cast<double>(vgpu::gtx_titan().transaction_bytes);
  return bytes;
}

/// Items a run issues: a fixed rate per --seconds, rounded up to whole
/// cycles of the mix; never a time window.
usize items_for(double seconds, double items_per_second, usize cycle) {
  const double want = std::max(1.0, std::ceil(seconds * items_per_second));
  const auto cycles = static_cast<usize>(
      std::ceil(want / static_cast<double>(cycle)));
  return std::max<usize>(1, cycles) * cycle;
}

// --- eq1-kdd ----------------------------------------------------------------

class Eq1Kdd final : public Workload {
 public:
  Eq1Kdd(std::uint64_t seed, double seconds)
      : seed_(seed), items_(items_for(seconds, kItemsPerSecond, 1)) {}

  void setup(SpanLog* log) override {
    registry_.reset();
    device_.reset();
    X_ = la::CsrMatrix();
    {
      ScopedSpan s(log, "la.kdd_like", "la", 0);
      X_ = la::kdd_like(kRows, kCols, kNnzPerRow, kSkew, derive(seed_, 0));
      s.arg("nnz", static_cast<double>(X_.nnz()));
    }
    {
      ScopedSpan s(log, "kernels.registry_init", "kernels", 0);
      device_ = std::make_unique<vgpu::Device>();
      registry_ = std::make_unique<kernels::OpRegistry>(*device_);
    }
    for (int w = 0; w < kWarmupItems; ++w) {
      const Inputs in = inputs(kWarmupStream + static_cast<usize>(w));
      ScopedSpan s(log, "kernels.pattern", "kernels", 0);
      registry_->pattern(kernels::Backend::kFused, kAlpha, X_, in.v, in.y,
                         kBeta, in.z);
    }
  }

  void prepare_references(SpanLog*) override {
    // Each item's reference is computed right before the item's timer
    // starts (see run): holding all of them would dominate peak RSS.
  }

  Pass run(SpanLog* log, int perturb) override {
    Pass pass;
    pass.items.reserve(items_);
    for (usize i = 0; i < items_; ++i) {
      Inputs in;
      std::vector<real> ref;
      {
        ScopedSpan s(log, "la.item_inputs", "la", i + 1);
        in = inputs(i);
        ref = la::reference::pattern(kAlpha, X_, in.v, in.y, kBeta, in.z);
      }
      ItemRecord rec;
      kernels::KernelOutcome out;
      int pattern_span = -1;
      {
        ScopedSpan item(log, "item", "bench", i + 1);
        const fusedml::Timer timer;
        {
          ScopedSpan s(log, "kernels.pattern", "kernels", i + 1, item.id());
          out = registry_->pattern(kernels::Backend::kFused, kAlpha, X_, in.v,
                                   in.y, kBeta, in.z);
          pattern_span = s.id();
        }
        rec.host_ms = timer.elapsed_ms();
      }
      if (log != nullptr) {
        log->arg(pattern_span, "wall_ms", out.wall_ms);
        log->arg(pattern_span, "modeled_ms", out.modeled_ms);
        log->arg(pattern_span, "launches", static_cast<double>(out.launches));
        attach_counters(log, pattern_span, out.counters);
        log->derived("vgpu.launch", "vgpu", pattern_span, out.wall_ms);
      }
      if (static_cast<usize>(perturb) > i && !out.value.empty()) {
        out.value[0] += 1.0;
      }
      rec.ok = pattern_matches(out.value, ref);
      rec.modeled_ms = out.modeled_ms;
      pass.launches += out.launches;
      pass.dram_transactions += dram_transactions(out.counters);
      pass.wall_ms += rec.host_ms;
      pass.items.push_back(rec);
    }
    return pass;
  }

  void layer_metrics(const SpanLog& log, const Pass& pass,
                     LayerMetrics& out) const override {
    const double n = static_cast<double>(pass.items.size());
    const double pattern_ms = log.total_ms("kernels.pattern") / n;
    const double sim_ms = log.total_arg("kernels.pattern", "wall_ms") / n;
    out["kernels.pattern_ms"] = pattern_ms;
    out["vgpu.sim_ms"] = sim_ms;
    out["vgpu.sim_share"] = pattern_ms > 0 ? sim_ms / pattern_ms : 0.0;
    out["kernels.dispatch_ms"] = pattern_ms - sim_ms;
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = fnv1a(X_.values(), kFnvBasis);
    return fnv1a(X_.col_idx(), h);
  }

 private:
  // Far above the ~6K columns the shared-memory aggregation variant holds,
  // so the fused kernel aggregates w in global memory (Alg. 2's variant).
  static constexpr index_t kRows = 30000;
  static constexpr index_t kCols = 80000;
  static constexpr double kNnzPerRow = 28.0;  ///< KDD 2010's average
  static constexpr double kSkew = 1.5;        ///< as bench_table4
  static constexpr real kAlpha = 1.5;
  static constexpr real kBeta = 0.5;
  static constexpr double kItemsPerSecond = 12.0;
  static constexpr int kWarmupItems = 2;
  static constexpr usize kWarmupStream = 1u << 20;

  struct Inputs {
    std::vector<real> y, v, z;
  };
  Inputs inputs(usize item) const {
    const std::uint64_t s = derive(seed_, 1 + item);
    return {la::random_vector(static_cast<usize>(kCols), derive(s, 0)),
            la::random_vector(static_cast<usize>(kRows), derive(s, 1)),
            la::random_vector(static_cast<usize>(kCols), derive(s, 2))};
  }

  std::uint64_t seed_;
  usize items_;
  la::CsrMatrix X_;
  std::unique_ptr<vgpu::Device> device_;
  std::unique_ptr<kernels::OpRegistry> registry_;
};

// --- scripts-higgs ----------------------------------------------------------

class ScriptsHiggs final : public Workload {
 public:
  ScriptsHiggs(std::uint64_t seed, double seconds)
      : seed_(seed),
        items_(items_for(seconds, kItemsPerSecond, std::size(kAlgorithms))) {}

  void setup(SpanLog* log) override {
    X_ = la::DenseMatrix();
    graph_ = la::DenseMatrix();
    {
      ScopedSpan s(log, "la.higgs_like", "la", 0);
      X_ = la::higgs_like(kRows, kCols, derive(seed_, 0));
      // PageRank runs on the leading square of its input; a 28-column X
      // would make that a 28-node graph, so it gets a square HIGGS-like
      // block of its own.
      graph_ = la::higgs_like(kGraphNodes, kGraphNodes, derive(seed_, 1));
    }
    {
      ScopedSpan s(log, "la.labels", "la", 0);
      for (const auto a : kAlgorithms) {
        labels_[index(a)] = make_labels(X_, labels_for(a), derive(seed_, 2));
      }
    }
    for (const auto a : kAlgorithms) {
      run_one(a, sysml::PlanMode::kPlanner);
      malloc_trim(0);
    }
  }

  void prepare_references(SpanLog* log) override {
    for (const auto a : kAlgorithms) {
      ScopedSpan s(log, std::string("ml.reference.") + ml::to_string(a), "ml",
                   0);
      references_[index(a)] = run_one(a, reference_mode(a)).weights;
    }
  }

  Pass run(SpanLog* log, int perturb) override {
    Pass pass;
    pass.items.reserve(items_);
    for (usize i = 0; i < items_; ++i) {
      const ml::Algorithm a = kAlgorithms[i % std::size(kAlgorithms)];
      ItemRecord rec;
      sysml::ScriptResult r;
      vgpu::MemCounters counters;
      {
        ScopedSpan item(log, "item", "bench", i + 1);
        const fusedml::Timer timer;
        r = run_one(a, sysml::PlanMode::kPlanner, log, i + 1, item.id(),
                    &counters);
        rec.host_ms = timer.elapsed_ms();
      }
      if (static_cast<usize>(perturb) > i && !r.weights.empty()) {
        r.weights[0] += 1.0;
      }
      rec.ok = script_matches(r.weights, references_[index(a)]);
      // Hand freed heap pages back between items (outside the timer): the
      // runs' op counts, and so the heap's fragmentation, vary with the
      // seed, and peak_rss_mb should track the largest run's live set.
      malloc_trim(0);
      rec.modeled_ms = r.runtime_stats.total_ms();
      pass.launches += r.runtime_stats.kernel_launches;
      pass.dram_transactions += dram_transactions(counters);
      pass.wall_ms += rec.host_ms;
      pass.items.push_back(rec);
    }
    return pass;
  }

  void layer_metrics(const SpanLog& log, const Pass&,
                     LayerMetrics& out) const override {
    for (const auto a : kAlgorithms) {
      const std::string name = std::string("ml.") + ml::to_string(a);
      const auto runs = static_cast<double>(log.count(name));
      if (runs == 0) continue;
      out[name + ".ms"] = log.total_ms(name) / runs;
      out[name + ".modeled_ms"] = log.total_arg(name, "modeled_ms") / runs;
      out[name + ".launches"] = log.total_arg(name, "launches") / runs;
      out[name + ".dram_mb"] =
          (log.total_arg(name, "gld") + log.total_arg(name, "gst")) *
          transaction_bytes() / kMiB / runs;
    }
  }

  std::uint64_t input_digest() const override {
    return fnv1a(graph_.data(), fnv1a(X_.data(), kFnvBasis));
  }

 private:
  static constexpr index_t kRows = 20000;
  static constexpr index_t kCols = 28;  ///< HIGGS's feature count
  static constexpr index_t kGraphNodes = 1600;
  static constexpr double kItemsPerSecond = 18.0;

  /// Outer-iteration cap per algorithm, in kAlgorithms order. The caps
  /// group the host times into three clusters of three nearly equal
  /// algorithms (~15, ~50, ~100 ms on a 4-core x86-64 host), so the p50
  /// rank of a whole-cycle run falls mid-cluster and the p90 rank inside
  /// the top cluster, never on the border between two algorithms.
  static constexpr int kIterations[] = {3, 4, 7, 17, 9, 3, 8, 40, 5};

  static usize index(ml::Algorithm a) { return static_cast<usize>(a); }

  /// One script run on a fresh Device and Runtime.
  sysml::ScriptResult run_one(ml::Algorithm a, sysml::PlanMode mode,
                              SpanLog* log = nullptr, std::uint64_t item = 0,
                              int parent = -1,
                              vgpu::MemCounters* counters = nullptr) const {
    const ml::ScriptSpec* spec = ml::find_script(a, /*dense=*/true, mode);
    if (spec == nullptr || !spec->run_dense) {
      throw std::runtime_error("script library has no dense entry");
    }
    std::unique_ptr<vgpu::Device> dev;
    {
      ScopedSpan s(log, "vgpu.device_init", "vgpu", item, parent);
      dev = std::make_unique<vgpu::Device>();
    }
    std::unique_ptr<sysml::Runtime> rt;
    {
      ScopedSpan s(log, "sysml.runtime_init", "sysml", item, parent);
      rt = std::make_unique<sysml::Runtime>(*dev);
    }
    const auto& input = a == ml::Algorithm::kPagerank ? graph_ : X_;
    sysml::ScriptResult r;
    int span = -1;
    {
      ScopedSpan s(log, std::string("ml.") + ml::to_string(a), "ml", item,
                   parent);
      r = spec->run_dense(*rt, input, labels_[index(a)],
                          kIterations[index(a)]);
      span = s.id();
    }
    if (counters != nullptr) *counters = dev->session_counters();
    if (log != nullptr) {
      const auto& st = r.runtime_stats;
      const auto& mem = r.memory_stats;
      log->arg(span, "modeled_ms", st.total_ms());
      log->arg(span, "launches", static_cast<double>(st.kernel_launches));
      log->arg(span, "plan_host_ms", st.plan_host_ms);
      log->arg(span, "gpu_kernel_ms", st.gpu_kernel_ms);
      log->arg(span, "transfer_ms", st.transfer_ms);
      log->arg(span, "jni_ms", st.jni_ms);
      log->arg(span, "cpu_op_ms", st.cpu_op_ms);
      log->arg(span, "gpu_ops", static_cast<double>(st.gpu_ops));
      log->arg(span, "cpu_ops", static_cast<double>(st.cpu_ops));
      log->arg(span, "fused_groups", r.fused_groups);
      log->arg(span, "plans_built", r.plans_built);
      log->arg(span, "plan_cache_hits", r.plan_cache_hits);
      log->arg(span, "h2d_mb", static_cast<double>(mem.h2d_bytes) / kMiB);
      log->arg(span, "d2h_mb", static_cast<double>(mem.d2h_bytes) / kMiB);
      log->arg(span, "evictions", static_cast<double>(mem.evictions));
      attach_counters(log, span, dev->session_counters());
      log->derived("sysml.plan", "sysml", span, st.plan_host_ms);
    }
    return r;
  }

  std::uint64_t seed_;
  usize items_;
  la::DenseMatrix X_;
  la::DenseMatrix graph_;
  std::vector<real> labels_[std::size(kAlgorithms)];
  std::vector<real> references_[std::size(kAlgorithms)];
};

// --- serve-mixed ------------------------------------------------------------

constexpr serve::ScriptKind kScriptKinds[] = {
    serve::ScriptKind::kLrCg,   serve::ScriptKind::kLogregGd,
    serve::ScriptKind::kGlm,    serve::ScriptKind::kSvm,
    serve::ScriptKind::kHits,   serve::ScriptKind::kAls,
    serve::ScriptKind::kKmeans, serve::ScriptKind::kPagerank,
    serve::ScriptKind::kMinibatchLogreg};

/// ScriptKind and Algorithm list the nine algorithms in the same order.
ml::Algorithm algorithm_of(serve::ScriptKind k) {
  return kAlgorithms[static_cast<usize>(k)];
}

/// Live worker threads of this process (main thread included).
int live_threads() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

class ServeMixed final : public Workload {
 public:
  ServeMixed(std::uint64_t seed, double seconds)
      : seed_(seed), items_(items_for(seconds, kItemsPerSecond, kCycle)) {}

  void setup(SpanLog* log) override {
    server_.reset();
    patterns_.clear();
    X_ = la::CsrMatrix();
    small_X_ = la::CsrMatrix();
    {
      ScopedSpan s(log, "la.kdd_like", "la", 0);
      X_ = la::kdd_like(kRows, kCols, kNnzPerRow, kSkew, derive(seed_, 0));
      small_X_ = la::kdd_like(kSmallRows, kSmallCols, kNnzPerRow, kSkew,
                              derive(seed_, 3));
    }
    {
      ScopedSpan s(log, "la.requests", "la", 0);
      for (const auto k : kScriptKinds) {
        labels_[static_cast<usize>(k)] = make_labels(
            matrix_for(k), labels_for(algorithm_of(k)), derive(seed_, 2));
      }
      for (usize p = 0; p < kPatternInputs; ++p) {
        const std::uint64_t ps = derive(seed_, 1 + p);
        patterns_.push_back(
            {la::random_vector(static_cast<usize>(kCols), derive(ps, 0)),
             la::random_vector(static_cast<usize>(kRows), derive(ps, 1)),
             la::random_vector(static_cast<usize>(kCols), derive(ps, 2)),
             {}});
      }
    }
    {
      ScopedSpan s(log, "serve.start", "serve", 0);
      serve::ServeOptions opts;
      opts.workers = kWorkers;
      server_ = std::make_unique<serve::Server>(opts);
      dataset_ = server_->add_dataset(X_);
      small_dataset_ = server_->add_dataset(small_X_);
      server_->start();
    }
    // Warm-up: the first cycle of the mix, unchecked and unrecorded.
    Pass warm;
    drive(nullptr, kCycle, 0, warm);
  }

  void prepare_references(SpanLog* log) override {
    for (auto& p : patterns_) {
      ScopedSpan s(log, "la.reference.pattern", "la", 0);
      p.ref = la::reference::pattern(kAlpha, X_, p.v, p.y, kBeta, p.z);
    }
    for (const auto k : kScriptKinds) {
      ScopedSpan s(log, std::string("ml.reference.") + to_string(k), "ml", 0);
      const ml::ScriptSpec* spec = ml::find_script(
          algorithm_of(k), /*dense=*/false, reference_mode(algorithm_of(k)));
      vgpu::Device dev;
      sysml::RuntimeOptions ro;  // as Server::run_script configures it
      ro.device_capacity = server_->pool().session_memory_bytes();
      sysml::Runtime rt(dev, ro);
      script_refs_[static_cast<usize>(k)] =
          spec->run_sparse(rt, matrix_for(k), labels_[static_cast<usize>(k)],
                           kScriptIterations)
              .weights;
    }
  }

  Pass run(SpanLog* log, int perturb) override {
    Pass pass;
    const serve::ServeStats before = server_->stats();
    const Totals t0 = device_totals();
    int pass_span = -1;
    {
      ScopedSpan s(log, "serve.pass", "serve", 0);
      const fusedml::Timer timer;
      drive(log, items_, perturb, pass, s.id());
      pass.wall_ms = timer.elapsed_ms();
      pass_span = s.id();
    }
    const Totals t1 = device_totals();
    const serve::ServeStats after = server_->stats();
    pass.launches = t1.launches - t0.launches;
    const vgpu::MemCounters c = counters_delta(t1.counters, t0.counters);
    pass.dram_transactions = dram_transactions(c);

    const std::uint64_t rejected =
        (after.rejected_queue_full - before.rejected_queue_full) +
        (after.rejected_over_capacity - before.rejected_over_capacity) +
        (after.shed - before.shed);
    const std::uint64_t expired =
        after.deadline_exceeded - before.deadline_exceeded;
    const std::uint64_t failed = after.failed - before.failed;
    if (rejected + expired + failed > 0) {
      pass.errors.push_back(
          std::to_string(rejected) + " rejected/shed, " +
          std::to_string(expired) + " deadline-exceeded, " +
          std::to_string(failed) + " failed requests; the closed loop must "
          "complete every request");
    }
    if (log != nullptr) {
      attach_counters(log, pass_span, c);
      log->arg(pass_span, "completed",
               static_cast<double>(after.completed - before.completed));
      log->arg(pass_span, "rejected", static_cast<double>(rejected));
      log->arg(pass_span, "deadline_exceeded", static_cast<double>(expired));
      log->arg(pass_span, "failed", static_cast<double>(failed));
      log->arg(pass_span, "queue_high_water",
               static_cast<double>(server_->queue_high_water()));
    }
    return pass;
  }

  void layer_metrics(const SpanLog& log, const Pass& pass,
                     LayerMetrics& out) const override {
    const double n = static_cast<double>(pass.items.size());
    std::vector<double> host[2], modeled[2], queue_wait;
    double submit_ms = 0.0, plan_ms = 0.0;
    for (const Span& s : log.spans()) {
      if (s.name == "serve.submit") submit_ms += s.dur_ms();
      if (s.name != "serve.request") continue;
      const int script = s.arg("script") != 0 ? 1 : 0;
      host[script].push_back(log.span(s.parent).dur_ms());
      modeled[script].push_back(s.arg("modeled_ms"));
      queue_wait.push_back(s.arg("queue_wait_ms"));
      plan_ms += s.arg("plan_host_ms");
    }
    out["serve.submit_us"] = submit_ms * 1000.0 / n;
    out["serve.pattern.host_ms_p50"] = quantile(host[0], 0.5);
    out["serve.pattern.host_ms_p90"] = quantile(host[0], 0.9);
    out["serve.script.host_ms_p50"] = quantile(host[1], 0.5);
    out["serve.script.host_ms_p90"] = quantile(host[1], 0.9);
    for (int k = 0; k < 2; ++k) {
      double sum = 0.0;
      for (const double m : modeled[k]) sum += m;
      out[k == 0 ? "serve.pattern.modeled_ms" : "serve.script.modeled_ms"] =
          modeled[k].empty()
              ? 0.0
              : sum / static_cast<double>(modeled[k].size());
    }
    out["serve.queue_wait_modeled_ms_p50"] = quantile(queue_wait, 0.5);
    out["sysml.plan_ms"] = plan_ms / n;
    for (const char* key :
         {"completed", "rejected", "deadline_exceeded", "failed",
          "queue_high_water"}) {
      out[std::string("serve.") + key] = sum_arg(
          log, key, [](const Span& s) { return s.name == "serve.pass"; });
    }
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = fnv1a(X_.values(), kFnvBasis);
    h = fnv1a(X_.col_idx(), h);
    return fnv1a(small_X_.values(), h);
  }

 private:
  // n fits the fused kernel's shared-memory aggregation variant (Alg. 1's
  // partial w in shared memory), the variant eq1-kdd does not run.
  static constexpr index_t kRows = 8000;
  static constexpr index_t kCols = 2048;
  static constexpr index_t kSmallRows = 2000;
  static constexpr index_t kSmallCols = 512;
  static constexpr double kNnzPerRow = 28.0;
  static constexpr double kSkew = 1.5;
  static constexpr int kWorkers = 2;
  static constexpr usize kInFlight = 4;
  static constexpr int kScriptIterations = 2;
  /// One cycle: each ScriptKind once, each followed by a pattern request.
  static constexpr usize kCycle = 2 * std::size(kScriptKinds);
  /// Distinct pattern-request inputs, reused round robin.
  static constexpr usize kPatternInputs = 27;
  static constexpr real kAlpha = 1.5;
  static constexpr real kBeta = 0.5;
  static constexpr double kItemsPerSecond = 55.0;
  static constexpr auto kPoll = std::chrono::microseconds(100);

  struct PatternInputs {
    std::vector<real> y, v, z, ref;
  };

  // Request i of a run: even i are script requests rotating through the
  // ScriptKinds, odd i pattern requests; both rotate through the
  // priorities.
  static bool is_script(usize i) { return i % 2 == 0; }
  static serve::ScriptKind kind_of(usize i) {
    return kScriptKinds[(i / 2) % std::size(kScriptKinds)];
  }
  static serve::Priority priority_of(usize i) {
    return static_cast<serve::Priority>((i / 2) % serve::kNumPriorities);
  }
  const PatternInputs& pattern_of(usize i) const {
    return patterns_[(i / 2) % kPatternInputs];
  }

  /// GLM, SVM and ALS requests run on the small dataset. On the large one
  /// GLM's IRLS-CG and SVM's Newton-CG issue tens of pattern launches each
  /// (~0.7 s a request, over half of a cycle's work), so throughput would
  /// hinge on where two requests land; and ALS's unfused reference
  /// materializes the dense m x n outer map the sddmm template avoids,
  /// several GB at 8000 x 2048.
  static bool on_small(serve::ScriptKind k) {
    return k == serve::ScriptKind::kGlm || k == serve::ScriptKind::kSvm ||
           k == serve::ScriptKind::kAls;
  }
  const la::CsrMatrix& matrix_for(serve::ScriptKind k) const {
    return on_small(k) ? small_X_ : X_;
  }

  struct Totals {
    std::uint64_t launches = 0;
    vgpu::MemCounters counters;
  };

  serve::ServeRequest to_serve(usize i) const {
    serve::ServeRequest req;
    req.priority = priority_of(i);
    req.tag = i;
    if (is_script(i)) {
      serve::ScriptEval e;
      e.kind = kind_of(i);
      e.dataset = on_small(e.kind) ? small_dataset_ : dataset_;
      e.iterations = kScriptIterations;
      e.labels = labels_[static_cast<usize>(e.kind)];
      req.work = std::move(e);
    } else {
      const PatternInputs& p = pattern_of(i);
      serve::PatternEval e;
      e.dataset = dataset_;
      e.alpha = kAlpha;
      e.beta = kBeta;
      e.y = p.y;
      e.v = p.v;
      e.z = p.z;
      req.work = std::move(e);
    }
    return req;
  }

  /// Session counters of the pool's devices. Server exposes its pool
  /// read-only; they are read only between passes, when every submitted
  /// request has resolved and no worker touches its device.
  Totals device_totals() const {
    Totals t;
    const serve::DevicePool& pool = server_->pool();
    for (int w = 0; w < pool.workers(); ++w) {
      auto& session = const_cast<serve::WorkerSession&>(pool.session(w));
      t.launches += session.device().session_launches();
      t.counters += session.device().session_counters();
    }
    return t;
  }

  /// Closed loop over requests [0, count): keeps kInFlight requests
  /// outstanding, submitting the next as soon as the generator sees one
  /// resolve.
  void drive(SpanLog* log, usize count, int perturb, Pass& pass,
             int parent = -1) {
    struct Slot {
      serve::ServeHandle handle;
      std::chrono::steady_clock::time_point submitted;
      usize index = 0;
      int span = -1;
      int request_span = -1;
      bool busy = false;
    };
    Slot slots[kInFlight];
    usize next = 0;
    std::vector<ItemRecord> records(count);

    auto submit = [&](Slot& slot, int lane) {
      const usize i = next++;
      serve::ServeRequest req = to_serve(i);
      slot.index = i;
      slot.busy = true;
      slot.span = log ? log->begin("item", "bench", i + 1, parent) : -1;
      if (log) log->set_lane(slot.span, lane + 1);
      slot.submitted = std::chrono::steady_clock::now();
      {
        ScopedSpan s(log, "serve.submit", "serve", i + 1, slot.span);
        slot.handle = server_->submit(std::move(req));
      }
      slot.request_span =
          log ? log->begin("serve.request", "serve", i + 1, slot.span) : -1;
    };

    for (usize k = 0; k < kInFlight && next < count; ++k) {
      submit(slots[k], static_cast<int>(k));
    }
    // 2 workers + this generator must fit the host's cores.
    const int threads = live_threads();
    if (threads != 1 + kWorkers ||
        std::thread::hardware_concurrency() < 1 + kWorkers) {
      pass.errors.push_back(
          "needs " + std::to_string(1 + kWorkers) +
          " threads on as many cores; found " + std::to_string(threads) +
          " threads, " + std::to_string(std::thread::hardware_concurrency()) +
          " cores");
    }
    usize done = 0;
    while (done < count) {
      bool seen = false;
      const auto now = std::chrono::steady_clock::now();
      for (usize k = 0; k < kInFlight; ++k) {
        Slot& slot = slots[k];
        if (!slot.busy || !slot.handle.resolved()) continue;
        seen = true;
        slot.busy = false;
        ++done;
        const serve::ServeOutcome& o = slot.handle.wait();
        ItemRecord& rec = records[slot.index];
        rec.host_ms =
            std::chrono::duration<double, std::milli>(now - slot.submitted)
                .count();
        rec.modeled_ms = o.modeled_ms;
        rec.ok = check(o, slot.index, perturb);
        if (log) {
          log->end(slot.request_span);
          log->arg(slot.request_span, "script",
                   is_script(slot.index) ? 1.0 : 0.0);
          log->arg(slot.request_span, "modeled_ms", o.modeled_ms);
          log->arg(slot.request_span, "queue_wait_ms", o.queue_wait_ms);
          log->arg(slot.request_span, "plan_host_ms", o.plan_host_ms);
          log->arg(slot.request_span, "worker", o.worker);
          log->end(slot.span);
          log->derived("sysml.plan", "sysml", slot.request_span,
                       o.plan_host_ms);
        }
      }
      if (!seen) {
        std::this_thread::sleep_for(kPoll);
        continue;
      }
      for (usize k = 0; k < kInFlight && next < count; ++k) {
        if (!slots[k].busy) submit(slots[k], static_cast<int>(k));
      }
    }
    pass.items = std::move(records);
  }

  bool check(const serve::ServeOutcome& o, usize i, int perturb) const {
    if (o.kind != serve::OutcomeKind::kCompleted) return false;
    std::vector<real> value = o.value;
    if (static_cast<usize>(perturb) > i && !value.empty()) value[0] += 1.0;
    if (!is_script(i)) return pattern_matches(value, pattern_of(i).ref);
    return script_matches(value, script_refs_[static_cast<usize>(kind_of(i))]);
  }

  std::uint64_t seed_;
  usize items_;
  la::CsrMatrix X_;
  la::CsrMatrix small_X_;
  std::vector<real> labels_[std::size(kScriptKinds)];
  std::vector<real> script_refs_[std::size(kScriptKinds)];
  std::vector<PatternInputs> patterns_;
  std::unique_ptr<serve::Server> server_;
  serve::DatasetId dataset_ = 0;
  serve::DatasetId small_dataset_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "eq1-kdd") {
    return std::make_unique<Eq1Kdd>(opts.seed, opts.seconds);
  }
  if (opts.workload == "scripts-higgs") {
    return std::make_unique<ScriptsHiggs>(opts.seed, opts.seconds);
  }
  if (opts.workload == "serve-mixed") {
    return std::make_unique<ServeMixed>(opts.seed, opts.seconds);
  }
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

/// The process's resident-set high-water mark (VmHWM), in MiB; -1 if
/// unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return -1.0;
}

/// Restarts the high-water mark at the current resident set, so the
/// references' transient memory stays out of peak_rss_mb.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

void add(Result& r, const std::string& name, const std::string& unit,
         double value) {
  r.metrics.push_back({name, unit, value});
}

void end_to_end(const Pass& pass, double setup_s, double peak_mb,
                Result& r) {
  const double n = static_cast<double>(pass.items.size());
  std::vector<double> host;
  double modeled = 0.0;
  std::uint64_t ok = 0;
  for (const ItemRecord& it : pass.items) {  // item order: exact sums
    host.push_back(it.host_ms);
    modeled += it.modeled_ms;
    ok += it.ok ? 1 : 0;
  }
  add(r, "setup_s", "s", setup_s);
  add(r, "items_per_s", "1/s", n / (pass.wall_ms / 1000.0));
  add(r, "host_ms_p50", "ms", quantile(host, 0.5));
  add(r, "host_ms_p90", "ms", quantile(host, 0.9));
  add(r, "modeled_ms_per_item", "ms", modeled / n);
  add(r, "launches_per_item", "count",
      static_cast<double>(pass.launches) / n);
  add(r, "dram_mb_per_item", "MB",
      static_cast<double>(pass.dram_transactions) * transaction_bytes() /
          kMiB / n);
  add(r, "ok_share", "ratio", static_cast<double>(ok) / n);
  add(r, "peak_rss_mb", "MB", peak_mb);
}

/// The per-layer metrics every workload derives the same way from its
/// spans: set-up generation time, device counters and sysml statistics per
/// item (n timed items).
void common_layer_metrics(const SpanLog& log, double n, LayerMetrics& m) {
  double generate_ms = 0.0;
  for (const Span& s : log.spans()) {
    if (s.item == 0 && s.layer == "la" &&
        !s.name.starts_with("la.reference")) {
      generate_ms += s.dur_ms();
    }
  }
  m["la.generate_ms"] = generate_ms;
  // Device counters, wherever the workload attached them: timed items'
  // spans, or the serving pass as a whole.
  const auto counted = [](const Span& s) {
    return s.item != 0 || s.name == "serve.pass";
  };
  for (const auto& [key, name] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"gld", "vgpu.gld_transactions"},
           {"gst", "vgpu.gst_transactions"},
           {"tex", "vgpu.tex_transactions"},
           {"l2_hit", "vgpu.l2_hit_transactions"},
           {"atomic_global", "vgpu.atomic_global_ops"},
           {"smem_conflicts", "vgpu.smem_bank_conflicts"}}) {
    m[name] = sum_arg(log, key, counted) / n;
  }
  // RuntimeStats / MemoryStats returned by each timed script run.
  const auto script_run = [](const Span& s) {
    return s.item != 0 && s.layer == "ml";
  };
  m["sysml.plan_ms"] = sum_arg(log, "plan_host_ms", script_run) / n;
  for (const char* key :
       {"gpu_kernel_ms", "transfer_ms", "jni_ms", "cpu_op_ms", "gpu_ops",
        "cpu_ops", "fused_groups", "plans_built", "plan_cache_hits", "h2d_mb",
        "d2h_mb", "evictions"}) {
    m[std::string("sysml.") + key] = sum_arg(log, key, script_run) / n;
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"eq1-kdd", "scripts-higgs",
                                                 "serve-mixed"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const auto names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"la.generate_ms", "ms"},
        {"kernels.pattern_ms", "ms"},
        {"kernels.dispatch_ms", "ms"},
        {"vgpu.sim_ms", "ms"},
        {"vgpu.sim_share", "ratio"},
        {"vgpu.sim_ns_per_txn", "ns"},
        {"vgpu.gld_transactions", "count"},
        {"vgpu.gst_transactions", "count"},
        {"vgpu.tex_transactions", "count"},
        {"vgpu.l2_hit_transactions", "count"},
        {"vgpu.atomic_global_ops", "count"},
        {"vgpu.smem_bank_conflicts", "count"},
    };
    for (const auto a : kAlgorithms) {
      const std::string p = std::string("ml.") + ml::to_string(a);
      v.emplace_back(p + ".ms", "ms");
      v.emplace_back(p + ".modeled_ms", "ms");
      v.emplace_back(p + ".launches", "count");
      v.emplace_back(p + ".dram_mb", "MB");
    }
    for (const auto& [name, unit] : std::initializer_list<
             std::pair<const char*, const char*>>{
             {"sysml.plan_ms", "ms"},
             {"sysml.gpu_kernel_ms", "ms"},
             {"sysml.transfer_ms", "ms"},
             {"sysml.jni_ms", "ms"},
             {"sysml.cpu_op_ms", "ms"},
             {"sysml.gpu_ops", "count"},
             {"sysml.cpu_ops", "count"},
             {"sysml.fused_groups", "count"},
             {"sysml.plans_built", "count"},
             {"sysml.plan_cache_hits", "count"},
             {"sysml.h2d_mb", "MB"},
             {"sysml.d2h_mb", "MB"},
             {"sysml.evictions", "count"},
             {"serve.submit_us", "us"},
             {"serve.pattern.host_ms_p50", "ms"},
             {"serve.pattern.host_ms_p90", "ms"},
             {"serve.script.host_ms_p50", "ms"},
             {"serve.script.host_ms_p90", "ms"},
             {"serve.pattern.modeled_ms", "ms"},
             {"serve.script.modeled_ms", "ms"},
             {"serve.queue_wait_modeled_ms_p50", "ms"},
             {"serve.queue_high_water", "count"},
             {"serve.completed", "count"},
             {"serve.rejected", "count"},
             {"serve.deadline_exceeded", "count"},
             {"serve.failed", "count"},
             {"la.self_ms", "ms"},
             {"kernels.self_ms", "ms"},
             {"vgpu.self_ms", "ms"},
             {"ml.self_ms", "ms"},
             {"sysml.self_ms", "ms"},
             {"serve.self_ms", "ms"},
             {"bench.self_ms", "ms"},
             {"trace.items_per_s", "1/s"},
             {"trace.untraced_items_per_s", "1/s"},
             {"trace.overhead_pct", "%"},
         }) {
      v.emplace_back(name, unit);
    }
    return v;
  }();
  return names;
}

Result run_workload(const Options& opts) {
  const double process_start = now_ms();
  std::unique_ptr<Workload> w = make_workload(opts);
  Result r;
  SpanLog log;
  SpanLog* setup_log = opts.trace ? &log : nullptr;

  // Set-up, repeated: the first repetition is timed from process start.
  std::vector<double> setups;
  const int repeats = opts.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    const double t0 = k == 0 ? process_start : now_ms();
    w->setup(setup_log);
    setups.push_back((now_ms() - t0) / 1000.0);
  }
  const double setup_peak_mb = peak_rss_mb();
  w->prepare_references(setup_log);
  if (!reset_peak_rss()) {
    r.errors.push_back(
        "cannot reset the peak-RSS mark (/proc/self/clear_refs)");
  }

  r.input_digest = w->input_digest();
  Pass pass;
  if (!opts.trace) {
    pass = w->run(nullptr, opts.perturb);
    const double peak_mb = std::max(setup_peak_mb, peak_rss_mb());
    end_to_end(pass, median(setups), peak_mb, r);
  } else {
    const Pass untraced = w->run(nullptr, opts.perturb);
    pass = w->run(&log, opts.perturb);
    const double n = static_cast<double>(pass.items.size());
    LayerMetrics m;
    for (const auto& [name, unit] : layer_metric_names()) m[name] = 0.0;

    common_layer_metrics(log, n, m);
    w->layer_metrics(log, pass, m);
    const double txn_per_item =
        m["vgpu.gld_transactions"] + m["vgpu.gst_transactions"] +
        m["vgpu.tex_transactions"] + m["vgpu.l2_hit_transactions"];
    if (txn_per_item > 0.0) {
      m["vgpu.sim_ns_per_txn"] = m["vgpu.sim_ms"] * 1e6 / txn_per_item;
    }
    for (const auto& [layer, ms] : log.self_ms_by_layer()) {
      m[layer + ".self_ms"] = ms / n;
    }
    const double ips = n / (pass.wall_ms / 1000.0);
    const double ips_untraced = n / (untraced.wall_ms / 1000.0);
    m["trace.items_per_s"] = ips;
    m["trace.untraced_items_per_s"] = ips_untraced;
    m["trace.overhead_pct"] = (ips_untraced / ips - 1.0) * 100.0;
    for (const auto& [name, unit] : layer_metric_names()) {
      add(r, name, unit, m.at(name));
    }
    if (m.size() != layer_metric_names().size()) {
      r.errors.push_back("internal: a workload reported an unlisted metric");
    }
    if (!opts.trace_path.empty() && !log.write_chrome_trace(opts.trace_path)) {
      r.errors.push_back("cannot write trace to " + opts.trace_path);
    }
  }

  r.attempted = pass.items.size();
  for (const ItemRecord& it : pass.items) r.failed += it.ok ? 0 : 1;
  r.errors.insert(r.errors.end(), pass.errors.begin(), pass.errors.end());
  if (r.failed > 0) {
    r.errors.push_back(std::to_string(r.failed) + " of " +
                       std::to_string(r.attempted) +
                       " items did not match their reference");
  }
  r.correct = r.errors.empty();
  return r;
}

}  // namespace perfbench
