// Algorithm-based fault tolerance (ABFT) for the operator registry — the
// redundant algebraic checks that catch SILENT data corruption, the fault
// class nothing else in the stack can see (vgpu::FaultKind::kSilentCorruption
// perturbs a kernel's output without raising any error).
//
// The matrix ops are verified Huang–Abraham style. Every check derives its
// expected checksum from the operands it is handed, in one host pass over X,
// and keeps nothing between calls — so an edited matrix or a reused weight
// vector is never judged against a stale sum:
//   product            p = X*y          : sum(p)  ?=  <colsum(X), y>
//   transposed product w = a*X^T*y      : sum(w)  ?=  a * <rowsum(X), y>
//   pattern (Eq. 1)    w = a*X^T(v⊙Xy)+bz : sum(w) ?= a * <k, y> + b * sum(z)
//                      with k = X^T (v ⊙ rowsum(X))
// The observed-side sum runs as ONE device reduction launch (dev_dot against
// a ones vector) so verification pays real modeled launch cost — declared
// via OpProfile::verify_launches and accounted by the planner audit. The
// elementwise/BLAS-1 ops are verified with host-side redundant arithmetic
// (sum identities or straight recomputation); those checks issue no device
// launches. Each matrix check is written once over MatrixOperand, which
// visits a CSR or dense matrix's stored entries row by row.
//
// Detection contract. The injected perturbation displaces one element by at
// least (1 + max|value|); checks compare with a relative tolerance of
// kAbftRelTol * (1 + |expected| + Σ|terms|), orders of magnitude above
// double-precision reduction noise and orders of magnitude below the
// perturbation at every scale this repo models — so clean runs never
// false-positive and injected corruptions are always caught (when the
// policy samples the op). A mismatch throws SilentCorruptionError; the
// caller's execute_resilient loop treats it like any transient fault and
// recomputes.
//
// VerifyPolicy::kSpot samples every kSpotInterval-th GPU dispatch — cheap
// continuous assurance; kFull checks every GPU dispatch — required for the
// bit-exact guarantees of the chaos SDC soak. CPU results are never checked
// (host arithmetic cannot be silently corrupted here).
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"
#include "kernels/cpu_backend.h"
#include "kernels/ewise_program.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
#include "vgpu/device.h"
#include "vgpu/mem_counters.h"

namespace fusedml::kernels {

/// How much of the GPU dispatch stream ABFT verification covers.
enum class VerifyPolicy {
  kOff,   ///< no checks (the default — zero overhead)
  kSpot,  ///< every kSpotInterval-th GPU dispatch
  kFull,  ///< every GPU dispatch — bit-exact guarantee under SDC injection
};

const char* to_string(VerifyPolicy policy);

/// Relative tolerance of every checksum comparison.
inline constexpr double kAbftRelTol = 1e-8;

/// Spot-mode sampling period: every Nth GPU dispatch is verified.
inline constexpr std::uint64_t kSpotInterval = 8;

/// What one verification cost the op it checked (folded into the op's
/// KernelOutcome accounting by the registry).
struct VerifyCharge {
  std::uint64_t launches = 0;  ///< device reduction launches issued
  double modeled_ms = 0.0;     ///< modeled device time of those launches
  vgpu::MemCounters counters;
};

/// Sum and absolute-sum of a vector in one pass — the precomputed input
/// checksums the in-place BLAS-1 checks need from before the launch.
struct HostSums {
  real sum = 0;
  real abs_sum = 0;
};

/// A check's matrix operand, CSR or dense (converts implicitly from both).
class MatrixOperand {
 public:
  MatrixOperand(const la::CsrMatrix& X) : csr_(&X) {}
  MatrixOperand(const la::DenseMatrix& X) : dense_(&X) {}

  index_t rows() const { return csr_ ? csr_->rows() : dense_->rows(); }
  index_t cols() const { return csr_ ? csr_->cols() : dense_->cols(); }

  /// Calls f(k, c, x) for every stored entry x = X(r, c) of row r, in
  /// storage order; k is the entry's storage index (the CSR nonzero index,
  /// or r * cols() + c for dense).
  template <typename F>
  void for_row(index_t r, F&& f) const {
    if (csr_) {
      const auto vals = csr_->values();
      const auto cols = csr_->col_idx();
      for (offset_t p = csr_->row_begin(r); p < csr_->row_end(r); ++p) {
        const auto k = static_cast<usize>(p);
        f(k, static_cast<usize>(cols[k]), vals[k]);
      }
      return;
    }
    const auto row = dense_->row(r);
    const usize base = static_cast<usize>(r) * row.size();
    for (usize c = 0; c < row.size(); ++c) f(base + c, c, row[c]);
  }

 private:
  const la::CsrMatrix* csr_ = nullptr;
  const la::DenseMatrix* dense_ = nullptr;
};

/// Holds no state between checks beyond its policy and the spot counter.
class AbftVerifier {
 public:
  AbftVerifier(vgpu::Device& dev, const CpuBackend& cpu)
      : dev_(dev), cpu_(cpu) {}

  void set_policy(VerifyPolicy policy) { policy_ = policy; }
  VerifyPolicy policy() const { return policy_; }

  /// Called once per GPU dispatch: advances the spot counter and returns
  /// whether THIS dispatch must be verified under the current policy.
  bool arm();

  // --- Matrix-op checks (one device reduction each) ----------------------
  // All throw SilentCorruptionError on mismatch (penalty = the check's own
  // modeled cost; the registry adds the doomed attempt's cost on rethrow).
  VerifyCharge check_product(std::span<const real> p, MatrixOperand X,
                             std::span<const real> y);
  VerifyCharge check_transposed_product(std::span<const real> w,
                                        MatrixOperand X,
                                        std::span<const real> y, real alpha);
  VerifyCharge check_pattern(std::span<const real> w, real alpha,
                             MatrixOperand X, std::span<const real> v,
                             std::span<const real> y, real beta,
                             std::span<const real> z);

  // --- Elementwise / BLAS-1 checks (host-side, launch-free) --------------
  VerifyCharge check_axpy(std::span<const real> y_after, real alpha,
                          const HostSums& x_before, const HostSums& y_before);
  VerifyCharge check_scal(std::span<const real> x_after, real alpha,
                          const HostSums& x_before);
  VerifyCharge check_dot(real observed, std::span<const real> x,
                         std::span<const real> y);
  VerifyCharge check_nrm2(real observed, std::span<const real> x);
  VerifyCharge check_ewise_mul(std::span<const real> out,
                               std::span<const real> x,
                               std::span<const real> y);
  VerifyCharge check_map(std::span<const real> out, std::span<const real> x,
                         real (*f)(real));
  VerifyCharge check_ewise_chain(std::span<const real> out,
                                 const EwiseProgram& program,
                                 std::span<const std::span<const real>> inputs);

  // --- Sparsity-template checks (host-side recomputation) ----------------
  // The row/sddmm family is verified by redundant host arithmetic over the
  // same per-element expressions the kernels evaluate; the reduction-style
  // checks scale their tolerance by the row's absolute term sum so
  // device-vs-host summation order never false-positives. fused_row and
  // fused_sddmm read their device output back through one billed reduction.
  VerifyCharge check_outer_map(std::span<const real> out,
                               std::span<const real> u,
                               std::span<const real> v, real (*f)(real));
  VerifyCharge check_sparse_mask(std::span<const real> out, MatrixOperand X,
                                 std::span<const real> om);
  VerifyCharge check_masked_product(std::span<const real> out,
                                    MatrixOperand X,
                                    std::span<const real> vals,
                                    std::span<const real> z);
  VerifyCharge check_fused_row(std::span<const real> out, MatrixOperand X,
                               std::span<const real> y,
                               const EwiseProgram& program,
                               std::span<const std::span<const real>> ext);
  VerifyCharge check_fused_sddmm(std::span<const real> out, MatrixOperand X,
                                 std::span<const real> u,
                                 std::span<const real> v,
                                 std::span<const real> z, real (*f)(real));

  static HostSums host_sums(std::span<const real> x);

 private:
  /// The device-side checksum: sums `w` in one dev_dot launch against a
  /// ones vector (inside a "verify:<what>" trace span) and compares it with
  /// `expected`. If the reduction launch itself draws a silent-corruption
  /// fault, the check cannot be trusted — it throws SilentCorruptionError
  /// immediately (a recompute follows).
  VerifyCharge check_sum(const char* what, std::span<const real> w,
                         real expected, real scale);
  /// check_sum over Σ expected, then every element screened on its own —
  /// the tail of the fused_row/fused_sddmm checks.
  VerifyCharge check_rows(const char* what, std::span<const real> out,
                          std::span<const real> expected,
                          std::span<const real> scale);

  vgpu::Device& dev_;
  const CpuBackend& cpu_;
  VerifyPolicy policy_ = VerifyPolicy::kOff;
  std::uint64_t spot_counter_ = 0;
};

}  // namespace fusedml::kernels
