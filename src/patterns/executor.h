// PatternExecutor — the library's main entry point.
//
// An executor owns a backend choice (fused device kernels, the multi-kernel
// cuSPARSE/cuBLAS-style baseline, the BIDMat-GPU-style baseline, or the
// CPU) and evaluates pattern instantiations against it. ML algorithms in
// src/ml are written once against this interface; benches swap backends to
// produce the paper's comparison lines; the usage histogram feeds Table 1.
//
// Dispatch and resilience both live in the unified operator registry
// (kernels/op_registry.h): each op's backend-switch body exists exactly
// once there, shared with the sysml::Runtime scheduler, and every call runs
// under the executor's RetryPolicy — transient faults from the virtual
// device are retried with modeled exponential backoff, and repeated failure
// or device OOM degrades the backend fused -> baseline-GPU -> CPU. Retried
// results are bit-exact (in-place operands are snapshotted and restored
// before each re-attempt) and all retry/backoff time is charged to the op's
// modeled cost so benches report the overhead honestly.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/resilience.h"
#include "kernels/op_registry.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
#include "patterns/pattern.h"
#include "vgpu/device.h"

namespace fusedml::patterns {

// The backend vocabulary is owned by the registry; re-exported here so the
// library's historical spelling (patterns::Backend, patterns::to_string)
// keeps working for benches and tests.
using Backend = kernels::Backend;
using kernels::fallback_backend;
using kernels::to_string;

/// Everything a caller learns from one pattern evaluation.
struct PatternResult {
  std::vector<real> value;
  double modeled_ms = 0.0;   ///< modeled device (or CPU-model) time,
                             ///< including retry + modeled backoff overhead
  double wall_ms = 0.0;      ///< host wall-clock of the functional run
  std::uint64_t launches = 0;
  vgpu::MemCounters counters;  ///< zero for the CPU backend
  PatternKind kind{};
  std::string kernel;        ///< which implementation ran
  Backend backend_used{};    ///< after any degradation
  ResilienceStats resilience;  ///< faults absorbed while producing value
};

class PatternExecutor {
 public:
  /// `cpu_threads` parameterizes the CPU backend's cost model (8 = the
  /// paper's MKL setting; 1 = the single-thread profile behind Table 2).
  PatternExecutor(vgpu::Device& dev, Backend backend, int cpu_threads = 8)
      : registry_(dev, cpu_threads), backend_(backend) {}

  Backend backend() const { return backend_; }

  /// w = alpha * X^T * y (Algorithm 1 territory; y has m entries).
  PatternResult transposed_product(const la::CsrMatrix& X,
                                   std::span<const real> y, real alpha = 1);

  /// Dense counterpart. The paper does not fuse this case ("we do not
  /// consider X^T x y, when X is dense" — cuBLAS is already near-optimal),
  /// so every GPU backend runs the gemv_t kernel here.
  PatternResult transposed_product(const la::DenseMatrix& X,
                                   std::span<const real> y, real alpha = 1);

  /// Plain products p = X * y (not a Table-1 pattern; cuSPARSE/cuBLAS are
  /// "already optimized" here per §4, so all GPU backends share one kernel).
  PatternResult product(const la::CsrMatrix& X, std::span<const real> y);
  PatternResult product(const la::DenseMatrix& X, std::span<const real> y);

  // --- BLAS-1 through the same backend (the Listing-1 script needs these
  // between pattern evaluations; on GPU backends each is a kernel launch).
  PatternResult axpy(real alpha, std::span<const real> x, std::span<real> y);
  PatternResult dot(std::span<const real> x, std::span<const real> y);
  PatternResult nrm2(std::span<const real> x);
  PatternResult scal(real alpha, std::span<real> x);

  /// w = alpha * X^T * (v ⊙ (X*y)) + beta*z; v/z may be empty.
  PatternResult pattern(real alpha, const la::CsrMatrix& X,
                        std::span<const real> v, std::span<const real> y,
                        real beta, std::span<const real> z);
  PatternResult pattern(real alpha, const la::DenseMatrix& X,
                        std::span<const real> v, std::span<const real> y,
                        real beta, std::span<const real> z);

  // Convenience wrappers for the Table-1 instantiations.
  PatternResult xt_xy(const la::CsrMatrix& X, std::span<const real> y) {
    return pattern(1, X, {}, y, 0, {});
  }
  PatternResult xt_xy(const la::DenseMatrix& X, std::span<const real> y) {
    return pattern(1, X, {}, y, 0, {});
  }

  /// Fault-handling knobs (attempts per backend, modeled backoff schedule,
  /// whether backend degradation is permitted).
  RetryPolicy& retry_policy() { return retry_; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Session-cumulative resilience stats across every op this executor ran.
  const ResilienceStats& resilience() const { return resilience_; }
  void reset_resilience() { resilience_ = ResilienceStats{}; }

  /// Pattern-kind usage histogram (feeds the Table 1 bench).
  const std::map<PatternKind, std::uint64_t>& usage() const { return usage_; }
  void reset_usage() { usage_.clear(); }

  /// Generated-kernel cache (§3.2 lifecycle: the fused backend generates
  /// a kernel per specialization the first time a shape is seen, then
  /// reuses it across iterations).
  const kernels::KernelCache& kernel_cache() const {
    return registry_.kernel_cache();
  }

  kernels::OpRegistry& registry() { return registry_; }

 private:
  kernels::OpRegistry registry_;
  Backend backend_;
  std::map<PatternKind, std::uint64_t> usage_;
  RetryPolicy retry_;
  ResilienceStats resilience_;

  void record(PatternKind kind) { ++usage_[kind]; }

  /// Registry resilient dispatch + PatternKind tagging.
  PatternResult run(const std::function<kernels::KernelOutcome(Backend)>& attempt,
                    PatternKind kind, std::span<real> inout = {});
};

}  // namespace fusedml::patterns
