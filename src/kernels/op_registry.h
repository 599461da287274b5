// The unified operator registry — one place that knows, for every logical
// operation, which kernel implements it on which backend and what that
// implementation costs.
//
// Before this existed, the per-backend dispatch switch lived twice: once in
// patterns::PatternExecutor (the library entry point benches drive) and
// once, implicitly, in sysml::Runtime's op_* bodies (the declarative-ML
// scheduler). The two copies drifted — Runtime bypassed the resilient
// retry/fallback machinery entirely. Now both layers route through this
// registry: the backend-switch body for each op exists exactly once, and so
// does the retry/backoff/degradation loop (execute_resilient).
//
// The registry also *declares* what each (op, backend, storage) pairing
// costs — launches issued, passes over the matrix, vector words moved per
// element — via op_profile(). The fusion planner consumes these profiles to
// score candidate plans with the same arithmetic the virtual device bills,
// instead of re-deriving per-op constants in a second place.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/resilience.h"
#include "kernels/abft.h"
#include "kernels/cpu_backend.h"
#include "kernels/ewise_program.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_sparse.h"
#include "kernels/kernel_cache.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
#include "vgpu/device.h"

namespace fusedml::kernels {

enum class Backend {
  kFused,       ///< the paper's fused kernels
  kCusparse,    ///< operator-at-a-time with explicit-transpose sparse X^T
  kBidmatGpu,   ///< operator-at-a-time with atomic-scatter sparse X^T
  kCpu,         ///< host CPU (MKL-like)
};

std::string to_string(Backend backend);

/// Degradation order on repeated failure: fused -> baseline GPU -> CPU.
/// The CPU is terminal (it cannot fault) — returns nullopt there.
std::optional<Backend> fallback_backend(Backend backend);

/// Pool-level backend health gate consulted by execute_resilient. A serving
/// pool installs one shared implementation (a circuit-breaker board) on
/// every worker's registry so a flapping backend is skipped POOL-WIDE for a
/// cooldown window instead of each request rediscovering the fault:
///   - allow(b) == false  => skip backend b without attempting it (counted
///     as a breaker_skip + fallback in ResilienceStats) and degrade;
///   - on_success(b)      => an attempt on b returned cleanly;
///   - on_failure(b)      => b was abandoned (retries exhausted, OOM, or
///     terminal failure).
/// Implementations must be thread-safe: many worker registries call in
/// concurrently. The CPU tier is terminal and must always be allowed.
class BackendHealth {
 public:
  virtual ~BackendHealth() = default;
  virtual bool allow(Backend backend) = 0;
  virtual void on_success(Backend backend) = 0;
  virtual void on_failure(Backend backend) = 0;
};

/// One noteworthy thing that happened inside a resilient dispatch — the
/// vocabulary a request-scoped trace needs to explain WHY a dispatch took
/// longer than its clean cost: a fault absorbed, a retry backoff charged, a
/// degradation to a lower tier, a breaker skip, an ABFT detection + forced
/// recompute, or the retry budget running dry. Clean attempts are NOT
/// reported — the modeled timeline already carries them — so an observer
/// sees only the anomalies.
struct DispatchEvent {
  enum class Kind {
    kFault,            ///< a typed fault was absorbed (detail = error text)
    kRetryBackoff,     ///< modeled backoff charged before a re-attempt
    kFallback,         ///< degraded from `backend` to `to`
    kBreakerSkip,      ///< `backend` skipped without an attempt (breaker open)
    kSdcDetected,      ///< an ABFT check caught silent corruption (recompute)
    kBudgetExhausted,  ///< retry budget/deadline gone; dispatch failed fast
  };
  Kind kind{};
  Backend backend{};     ///< tier the event happened on (or was skipped)
  Backend to{};          ///< kFallback / kBreakerSkip: the tier landed on
  double modeled_ms = 0.0;  ///< backoff / penalty charged by this event
  std::string detail;    ///< error text for faults (empty otherwise)
};

/// Observer for DispatchEvents, installed per registry (single-threaded with
/// respect to that registry's dispatches — a serving worker installs its
/// request's trace context here for the duration of one request). Null (the
/// default) costs one pointer load per anomaly, zero on clean dispatches.
class DispatchObserver {
 public:
  virtual ~DispatchObserver() = default;
  virtual void on_dispatch_event(const DispatchEvent& event) = 0;
};

/// The logical operations the registry dispatches. Mirrors the vocabulary
/// of both PatternExecutor's methods and sysml's expression-DAG OpKinds.
enum class RegistryOp {
  kPattern,            ///< w = alpha*X^T(v ⊙ (X*y)) + beta*z  (Equation 1)
  kTransposedProduct,  ///< w = alpha * X^T * y
  kProduct,            ///< p = X * y
  kAxpy,
  kScal,
  kDot,
  kNrm2,
  kEwiseMul,
  kMap,                ///< out[i] = f(x[i])
  kFusedEwise,         ///< generated streaming kernel for an ewise chain
  kOuterMap,           ///< the m*n values of f(u v^T), row-major
  kSparseMask,         ///< X's values scaled by an outer-map (X ⊙ O)
  kMaskedProduct,      ///< M * z, M = X's structure with substituted values
  kFusedRow,           ///< row product + elementwise epilogue, one kernel
  kFusedSddmm,         ///< (X ⊙ f(u v^T)) * z at nnz(X), one kernel
};

const char* to_string(RegistryOp op);

/// Declared cost/resource shape of one (op, backend, storage) entry — the
/// planner's costing vocabulary. Traffic splits into matrix passes (scaled
/// by the operand's byte size) and vector words per output element (scaled
/// by 8 * n); launches each pay the device's launch overhead.
struct OpProfile {
  std::uint64_t launches = 1;        ///< kernel launches per invocation
  double matrix_passes = 0.0;        ///< streaming passes over the matrix
  double vector_words_per_elem = 0;  ///< vector words moved per element
  bool in_place = false;             ///< mutates caller memory (snapshot
                                     ///< before a retried attempt)
  /// Extra device launches ONE ABFT verification of this entry issues when
  /// the active VerifyPolicy samples it (kernels/abft.h): the observed-side
  /// checksum reduction for the matrix ops; the elementwise checks are
  /// host-side and launch-free. The planner and the plan-vs-actual audit
  /// use this to account for verification launches separately from the
  /// plan's own kernels.
  std::uint64_t verify_launches = 0;
  const char* kernel = "";           ///< implementation identifier
};

/// Profile for `op` on `backend`; `sparse` selects the CSR-vs-dense entry
/// for the matrix ops (ignored elsewhere). kFusedEwise reports traffic per
/// program input/output stream — the planner adds the program shape itself.
OpProfile op_profile(RegistryOp op, Backend backend, bool sparse);

/// Everything one registry dispatch produces. Identical accounting across
/// backends so callers book CPU and GPU outcomes through the same code.
struct KernelOutcome {
  std::vector<real> value;
  double modeled_ms = 0.0;   ///< modeled device/CPU time incl. retry overhead
  double wall_ms = 0.0;      ///< host wall-clock of the functional run
  std::uint64_t launches = 0;
  vgpu::MemCounters counters;  ///< zero for the CPU backend
  std::string kernel;          ///< which implementation ran
  Backend backend_used{};      ///< after any degradation
  ResilienceStats resilience;  ///< faults absorbed while producing value
  /// Of `launches`/`modeled_ms`, the share spent on ABFT verification of
  /// the SUCCESSFUL attempt (zero when the verify policy skipped this op).
  /// launches/modeled_ms include these — the device really issued them —
  /// so callers that compare against plan predictions subtract them.
  std::uint64_t verify_launches = 0;
  double verify_ms = 0.0;
};

/// One registry per device: owns the CPU backend, the fused-kernel options,
/// and the generated-kernel cache, and exposes each logical op as a single
/// backend-switch body. All methods may throw the typed faults of
/// common/error.h when a fault injector is armed — wrap calls in
/// execute_resilient to absorb them under a RetryPolicy.
class OpRegistry {
 public:
  explicit OpRegistry(vgpu::Device& dev, int cpu_threads = 8)
      : dev_(dev), cpu_(vgpu::paper_host_cpu(), cpu_threads) {}

  // --- Single-attempt dispatch bodies (one switch per op, shared by every
  // caller; no retry logic here) -------------------------------------------
  KernelOutcome transposed_product(Backend b, const la::CsrMatrix& X,
                                   std::span<const real> y, real alpha);
  KernelOutcome transposed_product(Backend b, const la::DenseMatrix& X,
                                   std::span<const real> y, real alpha);
  KernelOutcome product(Backend b, const la::CsrMatrix& X,
                        std::span<const real> y);
  KernelOutcome product(Backend b, const la::DenseMatrix& X,
                        std::span<const real> y);
  KernelOutcome pattern(Backend b, real alpha, const la::CsrMatrix& X,
                        std::span<const real> v, std::span<const real> y,
                        real beta, std::span<const real> z);
  KernelOutcome pattern(Backend b, real alpha, const la::DenseMatrix& X,
                        std::span<const real> v, std::span<const real> y,
                        real beta, std::span<const real> z);
  KernelOutcome axpy(Backend b, real alpha, std::span<const real> x,
                     std::span<real> y);
  KernelOutcome scal(Backend b, real alpha, std::span<real> x);
  KernelOutcome dot(Backend b, std::span<const real> x,
                    std::span<const real> y);
  KernelOutcome nrm2(Backend b, std::span<const real> x);
  KernelOutcome ewise_mul(Backend b, std::span<const real> x,
                          std::span<const real> y);
  KernelOutcome map(Backend b, std::span<const real> x, real (*f)(real),
                    const std::string& name);
  /// Generated streaming kernel for a fused elementwise chain (§3.2
  /// lifecycle: source generated + cached on first use of each shape).
  KernelOutcome fused_ewise(Backend b, const EwiseProgram& program,
                            std::span<const std::span<const real>> inputs);

  // Sparsity-exploiting template family (kernels/fused_row.h): the unfused
  // building blocks and the fused row / sddmm kernels.
  KernelOutcome outer_map(Backend b, std::span<const real> u,
                          std::span<const real> v, real (*f)(real),
                          const std::string& name);
  KernelOutcome sparse_mask(Backend b, const la::CsrMatrix& X,
                            std::span<const real> om);
  KernelOutcome sparse_mask(Backend b, const la::DenseMatrix& X,
                            std::span<const real> om);
  KernelOutcome masked_product(Backend b, const la::CsrMatrix& X,
                               std::span<const real> vals,
                               std::span<const real> z);
  KernelOutcome masked_product(Backend b, const la::DenseMatrix& X,
                               std::span<const real> vals,
                               std::span<const real> z);
  KernelOutcome fused_row(Backend b, const la::CsrMatrix& X,
                          std::span<const real> y, const EwiseProgram& program,
                          std::span<const std::span<const real>> ext);
  KernelOutcome fused_row(Backend b, const la::DenseMatrix& X,
                          std::span<const real> y, const EwiseProgram& program,
                          std::span<const std::span<const real>> ext);
  KernelOutcome fused_sddmm(Backend b, const la::CsrMatrix& X,
                            std::span<const real> u, std::span<const real> v,
                            std::span<const real> z, real (*f)(real),
                            const std::string& name);
  KernelOutcome fused_sddmm(Backend b, const la::DenseMatrix& X,
                            std::span<const real> u, std::span<const real> v,
                            std::span<const real> z, real (*f)(real),
                            const std::string& name);

  /// Runs `attempt` under the retry/backoff/fallback policy, starting from
  /// `preferred`. `inout` names caller memory the op mutates in place; it
  /// is snapshotted so a failed attempt is rolled back before the retry.
  /// `session` (optional) accumulates this call's resilience stats into a
  /// caller-owned running total.
  KernelOutcome execute_resilient(
      Backend preferred, const RetryPolicy& policy,
      const std::function<KernelOutcome(Backend)>& attempt,
      std::span<real> inout = {}, ResilienceStats* session = nullptr);

  /// Installs a pool-level backend health gate (circuit breakers) consulted
  /// by execute_resilient; nullptr (the default) disables gating. Not owned;
  /// must outlive the registry while set.
  void set_health(BackendHealth* health) { health_ = health; }
  BackendHealth* health() const { return health_; }

  /// Installs a dispatch-anomaly observer (request-scoped tracing). Not
  /// owned; must outlive the registry while set. The serving layer installs
  /// its request trace context here around each request's execution.
  void set_dispatch_observer(DispatchObserver* observer) {
    observer_ = observer;
  }
  DispatchObserver* dispatch_observer() const { return observer_; }

  /// ABFT verification of GPU results (kernels/abft.h). kOff (the default)
  /// adds zero work; kSpot/kFull make sampled/every GPU dispatches prove
  /// their output against a checksum invariant, turning silent corruption
  /// into a typed SilentCorruptionError that execute_resilient recomputes.
  void set_verify_policy(VerifyPolicy policy) { sdc_.set_policy(policy); }
  VerifyPolicy verify_policy() const { return sdc_.policy(); }
  AbftVerifier& verifier() { return sdc_; }

  /// Fused-kernel options applied on the kFused backend.
  FusedSparseOptions& sparse_options() { return sparse_opts_; }
  FusedDenseOptions& dense_options() { return dense_opts_; }

  /// Generated-kernel cache (dense pattern shapes + ewise-chain programs).
  const KernelCache& kernel_cache() const { return codegen_cache_; }

  vgpu::Device& device() { return dev_; }
  const CpuBackend& cpu() const { return cpu_; }

  /// Streaming pattern kernels (kernels/streaming.h) launch on the device
  /// OUTSIDE the registry's dispatch bodies, so their silent-corruption
  /// draws are not consumed above. Callers that drive streaming directly
  /// (Runtime's out-of-core branch) call this on the merged result: any
  /// pending draws perturb it exactly like a dispatch body would. Returns
  /// true if a corruption was applied.
  bool consume_streamed_corruption(std::vector<real>& value);

 private:
  vgpu::Device& dev_;
  CpuBackend cpu_;
  FusedSparseOptions sparse_opts_;
  FusedDenseOptions dense_opts_;
  KernelCache codegen_cache_;
  BackendHealth* health_ = nullptr;
  DispatchObserver* observer_ = nullptr;
  AbftVerifier sdc_{dev_, cpu_};

  struct NoPrepare {
    void operator()() const {}
  };
  /// The one verified-dispatch body every GPU op runs: arm the ABFT
  /// verifier, run `prepare` if armed (in-place ops checksum their inputs
  /// BEFORE the launch), `launch()` the kernel, apply any injected silent
  /// corruption (mirrored into `in_place`), then, if armed, fold
  /// `check(out)`'s verification cost into the outcome.
  template <typename Launch, typename Check, typename Prepare = NoPrepare>
  KernelOutcome verified(Launch&& launch, Check&& check,
                         std::span<real> in_place = {},
                         Prepare&& prepare = {});

  /// Consume side of the device's silent-corruption handshake: if any
  /// launch of the op that produced `out` drew kSilentCorruption, perturb
  /// one deterministic seeded element of the output (and mirror it into the
  /// op's in-place buffer, if any, so callers see the corruption too).
  void apply_injected_corruption(KernelOutcome& out, std::span<real> in_place);
  /// Shared perturbation body: seeded element flip of `value`, mirrored
  /// into `in_place` when the index is in range.
  void perturb(std::span<real> value, std::span<real> in_place,
               std::uint64_t pending);
};

}  // namespace fusedml::kernels
