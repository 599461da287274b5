// Silent-data-corruption defense, layer by layer:
//
//   - the fault injector draws kSilentCorruption at its own rate, on its
//     own deterministic seeded schedule, WITHOUT disturbing the signaled
//     fault schedule (the seed-determinism contract of fault_injector.h);
//   - the device books a silently-corrupted launch as a normal success and
//     only the pending-corruption handshake betrays it;
//   - the op registry perturbs exactly one seeded element, ABFT
//     verification (VerifyPolicy::kFull) turns that into a typed
//     SilentCorruptionError, and execute_resilient recomputes to the
//     bit-exact value;
//   - verification cost is billed exactly once (outcome launches/ms
//     include it; the verify_* sub-buckets break it out);
//   - every check, called directly on CSR and dense operands, passes a
//     clean output and throws on one displaced element;
//   - the FALSE-POSITIVE ORACLE: with zero faults, full verification over
//     every ScriptLibrary entry (9 algorithms × {csr, dense} × 3 plan
//     modes) detects nothing and is bit-exact with verification off, and
//     in-place edits of X or v between two verified calls are re-checked;
//   - SolverCheckpoint saves on cadence and rolls back transient faults
//     only, within its budget;
//   - the DeviceHealthBoard quarantines at the threshold, never drains the
//     last healthy device, and releases probation on the modeled clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "kernels/op_registry.h"
#include "la/convert.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "serve/device_health.h"
#include "sysml/checkpoint.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

namespace fusedml {
namespace {

using kernels::Backend;
using kernels::OpRegistry;
using kernels::VerifyPolicy;

// --- Injector: silent rate, determinism, schedule isolation -----------------

TEST(SdcInjector, SilentRateIsHonoredAndDeterministic) {
  vgpu::FaultConfig cfg;
  cfg.seed = 99;
  cfg.silent_fault_rate = 0.05;
  vgpu::FaultInjector a(cfg);
  vgpu::FaultInjector b(cfg);

  constexpr int kDraws = 20000;
  int silent = 0;
  for (int i = 0; i < kDraws; ++i) {
    const auto fa = a.next_launch_fault();
    const auto fb = b.next_launch_fault();
    ASSERT_EQ(fa, fb) << "same seed must give the same schedule at draw " << i;
    if (fa == vgpu::FaultKind::kSilentCorruption) ++silent;
  }
  // ~5% of 20k draws, with generous slack for the uniform sampler.
  EXPECT_GT(silent, kDraws / 40);  // > 2.5%
  EXPECT_LT(silent, kDraws / 10);  // < 10%
  EXPECT_EQ(a.log().silent_faults, static_cast<std::uint64_t>(silent));
}

TEST(SdcInjector, SilentRateDoesNotPerturbSignaledSchedule) {
  // The silent band sits AFTER every signaled band in the threshold ladder,
  // so arming it must not move a single signaled fault at a given seed —
  // only convert some previously-clean draws. This is the contract that
  // keeps existing seeded chaos tests reproducible.
  vgpu::FaultConfig signaled;
  signaled.seed = 1234;
  signaled.kernel_fault_rate = 0.10;
  signaled.ecc_fault_rate = 0.05;
  signaled.oom_fault_rate = 0.02;
  vgpu::FaultConfig with_silent = signaled;
  with_silent.silent_fault_rate = 0.10;

  vgpu::FaultInjector base(signaled);
  vgpu::FaultInjector extended(with_silent);
  for (int i = 0; i < 5000; ++i) {
    const auto fb = base.next_launch_fault();
    const auto fe = extended.next_launch_fault();
    if (fb != vgpu::FaultKind::kNone) {
      ASSERT_EQ(fb, fe) << "signaled fault moved at draw " << i;
    } else {
      ASSERT_TRUE(fe == vgpu::FaultKind::kNone ||
                  fe == vgpu::FaultKind::kSilentCorruption)
          << "a clean draw may only become silent, at draw " << i;
    }
  }
}

// --- Device handshake -------------------------------------------------------

TEST(SdcDevice, SilentLaunchSucceedsAndArmsPendingCorruption) {
  vgpu::FaultConfig cfg;
  cfg.silent_fault_rate = 1.0;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);

  vgpu::LaunchConfig lc;
  lc.grid_size = 4;
  lc.block_size = 32;
  int ran = 0;
  // The launch must return NORMALLY — that is what "silent" means.
  const auto stats = dev.launch(lc, [&](vgpu::BlockCtx&) { ++ran; });
  EXPECT_EQ(ran, 4);
  EXPECT_GT(stats.modeled_ms(), 0.0);
  EXPECT_EQ(dev.pending_silent_corruptions(), 1u);
  EXPECT_EQ(dev.silent_corruption_seq(), 1u);

  dev.launch(lc, [](vgpu::BlockCtx&) {});
  EXPECT_EQ(dev.pending_silent_corruptions(), 2u);
  EXPECT_EQ(dev.take_silent_corruptions(), 2u);
  EXPECT_EQ(dev.pending_silent_corruptions(), 0u);
  // The ordinal keeps counting across take() — it seeds the deterministic
  // element flip, so it must never repeat within a run.
  EXPECT_EQ(dev.silent_corruption_seq(), 2u);
}

// --- ABFT detection + resilient recompute -----------------------------------

TEST(SdcAbft, CorruptionIsSilentWithoutVerification) {
  const auto X = la::uniform_sparse(64, 24, 0.2, 7);
  const auto y = la::random_vector(24, 8);
  vgpu::Device clean_dev;
  OpRegistry clean_reg(clean_dev);
  const auto expect = clean_reg.product(Backend::kFused, X, y);

  vgpu::FaultConfig cfg;
  cfg.silent_fault_rate = 1.0;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);
  OpRegistry reg(dev);  // policy defaults to kOff
  const auto corrupted = reg.product(Backend::kFused, X, y);

  // No error was raised, but the value is wrong — the defenseless baseline
  // this whole subsystem exists for.
  EXPECT_NE(la::max_abs_diff(expect.value, corrupted.value), 0.0);
  EXPECT_EQ(corrupted.resilience.faults_seen, 0u);
}

TEST(SdcAbft, FullVerificationThrowsTypedErrorWithPenalty) {
  const auto X = la::uniform_sparse(64, 24, 0.2, 7);
  const auto y = la::random_vector(24, 8);
  vgpu::FaultConfig cfg;
  cfg.silent_fault_rate = 1.0;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);
  try {
    reg.product(Backend::kFused, X, y);
    FAIL() << "verified dispatch of a corrupted launch must throw";
  } catch (const SilentCorruptionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSilentCorruption);
    // The corrupted attempt's full modeled time is burned.
    EXPECT_GT(e.penalty_ms(), 0.0);
  }
}

TEST(SdcAbft, ExecuteResilientRecomputesBitExact) {
  const auto X = la::uniform_sparse(96, 40, 0.15, 11);
  const auto y = la::random_vector(40, 12);

  vgpu::FaultConfig cfg;
  cfg.seed = 5;
  cfg.silent_fault_rate = 0.5;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);

  RetryPolicy policy;
  ResilienceStats session;
  const auto out = reg.execute_resilient(
      Backend::kFused, policy,
      [&](Backend b) { return reg.product(b, X, y); }, {}, &session);
  // Retries may have degraded tiers, so the oracle is a clean dispatch on
  // whichever backend finally produced the value (summation order differs
  // across tiers; WITHIN a tier results are bit-exact).
  vgpu::Device ref_dev;
  OpRegistry ref(ref_dev);
  const auto expect = ref.product(out.backend_used, X, y).value;
  ASSERT_EQ(out.value.size(), expect.size());
  for (usize i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(out.value[i], expect[i]) << "element " << i;
  }
  // At a 50% silent rate the first attempts essentially cannot all be
  // clean; the defense must actually have fired.
  EXPECT_GT(session.sdc_detected, 0u);
  EXPECT_GT(session.wasted_ms, 0.0);
}

TEST(SdcAbft, VerificationBilledExactlyOnce) {
  const auto X = la::uniform_sparse(64, 24, 0.2, 7);
  const auto y = la::random_vector(24, 8);

  vgpu::Device dev_off;
  OpRegistry off(dev_off);
  const auto baseline = off.product(Backend::kFused, X, y);

  vgpu::Device dev_full;
  OpRegistry full(dev_full);
  full.set_verify_policy(VerifyPolicy::kFull);
  RetryPolicy policy;
  ResilienceStats session;
  const auto verified = full.execute_resilient(
      Backend::kFused, policy,
      [&](Backend b) { return full.product(b, X, y); }, {}, &session);

  // The declared verify cost is real launches, included in the totals and
  // broken out once — outcome totals minus the sub-bucket reproduce the
  // unverified run exactly.
  EXPECT_GT(verified.verify_launches, 0u);
  EXPECT_GT(verified.verify_ms, 0.0);
  EXPECT_EQ(verified.launches - verified.verify_launches, baseline.launches);
  EXPECT_NEAR(verified.modeled_ms - verified.verify_ms, baseline.modeled_ms,
              1e-12);
  // And the session aggregate saw the same bill exactly once.
  EXPECT_EQ(session.verify_launches, verified.verify_launches);
  EXPECT_EQ(session.verify_ms, verified.verify_ms);
  EXPECT_EQ(session.sdc_detected, 0u);
}

// --- The false-positive oracle ----------------------------------------------

// Full verification over the ENTIRE script library — every algorithm,
// both storage formats, all three plan modes — on fault-free devices. It
// must detect nothing and change nothing: weights bit-exact with the
// verification-off run. Any divergence means the checksum invariants are
// wrong for some kernel, which would poison every real detection.
TEST(SdcFalsePositiveOracle, FullVerifyIsExactOnCleanDevices) {
  const auto X = la::uniform_sparse(72, 28, 0.15, 31);
  const auto Xd = la::csr_to_dense(X);
  const auto labels = la::regression_labels(X, 9, 0.05);

  int covered = 0;
  for (const auto& spec : ml::script_library()) {
    SCOPED_TRACE(spec.name);
    // HITS needs a square matrix; cover it separately below.
    if (spec.algorithm == ml::Algorithm::kHits) continue;

    const auto run = [&](VerifyPolicy policy) {
      vgpu::Device dev;
      sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
      rt.set_verify_policy(policy);
      sysml::ScriptResult r = spec.dense
                                  ? spec.run_dense(rt, Xd, labels, 2)
                                  : spec.run_sparse(rt, X, labels, 2);
      EXPECT_EQ(rt.resilience().sdc_detected, 0u)
          << "false positive under " << spec.name;
      EXPECT_EQ(rt.resilience().faults_seen, 0u);
      return r;
    };
    const auto off = run(VerifyPolicy::kOff);
    const auto full = run(VerifyPolicy::kFull);
    ASSERT_EQ(off.weights.size(), full.weights.size());
    for (usize i = 0; i < off.weights.size(); ++i) {
      ASSERT_EQ(off.weights[i], full.weights[i]) << "weight " << i;
    }
    EXPECT_EQ(off.iterations, full.iterations);
    // Verification must be visible in the accounting, not a silent no-op
    // (GPU scripts issue verifiable matrix/vector ops in every mode).
    EXPECT_GT(full.runtime_stats.verify_launches +
                  static_cast<std::uint64_t>(full.runtime_stats.verify_ms > 0),
              0u)
        << "kFull billed no verification for " << spec.name;
    ++covered;
  }
  EXPECT_EQ(covered, 8 * 2 * 3);  // 8 non-HITS algorithms × storage × modes

  // HITS: square link matrix, labels ignored.
  const auto L = la::uniform_sparse(48, 48, 0.08, 33);
  const auto Ld = la::csr_to_dense(L);
  for (const auto& spec : ml::script_library()) {
    if (spec.algorithm != ml::Algorithm::kHits) continue;
    SCOPED_TRACE(spec.name);
    const auto run = [&](VerifyPolicy policy) {
      vgpu::Device dev;
      sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
      rt.set_verify_policy(policy);
      sysml::ScriptResult r = spec.dense ? spec.run_dense(rt, Ld, {}, 2)
                                         : spec.run_sparse(rt, L, {}, 2);
      EXPECT_EQ(rt.resilience().sdc_detected, 0u);
      return r;
    };
    const auto off = run(VerifyPolicy::kOff);
    const auto full = run(VerifyPolicy::kFull);
    ASSERT_EQ(off.weights.size(), full.weights.size());
    for (usize i = 0; i < off.weights.size(); ++i) {
      ASSERT_EQ(off.weights[i], full.weights[i]) << "weight " << i;
    }
    ++covered;
  }
  EXPECT_EQ(covered, 9 * 2 * 3);  // the whole library
}

// The verifier keeps nothing between checks: a matrix edited in place and a
// weight vector permuted in place (same address, size, sum, first and last
// entries) are judged against checksums of what the op actually read.
TEST(SdcFalsePositiveOracle, EditedMatrixValuesAreReverified) {
  auto X = la::uniform_sparse(2000, 300, 0.05, 71);
  auto Xd = la::csr_to_dense(la::uniform_sparse(400, 120, 0.3, 72));
  const auto y = la::random_vector(300, 73);
  const auto yd = la::random_vector(120, 74);
  const auto edit = [](std::span<real> vals) {
    for (real& v : vals) v = real{0.5} - 3 * v;
  };
  vgpu::Device dev;
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);

  EXPECT_NO_THROW(reg.product(Backend::kFused, X, y));
  edit(X.values_mut());
  EXPECT_NO_THROW(reg.product(Backend::kFused, X, y)) << "csr after edit";

  EXPECT_NO_THROW(reg.product(Backend::kFused, Xd, yd));
  edit(Xd.data());
  EXPECT_NO_THROW(reg.product(Backend::kFused, Xd, yd)) << "dense after edit";
}

TEST(SdcFalsePositiveOracle, PermutedWeightsAreReverified) {
  const auto X = la::uniform_sparse(2000, 300, 0.05, 75);
  const auto Xd = la::csr_to_dense(X);
  const auto y = la::random_vector(300, 76);
  const auto z = la::random_vector(300, 77);
  vgpu::Device dev;
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);

  const auto verify_twice = [&](const auto& M, const char* storage) {
    SCOPED_TRACE(storage);
    std::vector<real> v(2000);
    for (usize i = 0; i < v.size(); ++i) v[i] = static_cast<real>(i % 7 + 1);
    EXPECT_NO_THROW(reg.pattern(Backend::kFused, 0.5, M, v, y, 2.0, z));
    std::swap(v[10], v[1500]);  // 4 <-> 3: sum, front and back unchanged
    EXPECT_NO_THROW(reg.pattern(Backend::kFused, 0.5, M, v, y, 2.0, z))
        << "after swapping two interior weights";
  };
  verify_twice(X, "csr");
  verify_twice(Xd, "dense");
}

// --- Every check screens every element ---------------------------------------

real sigmoid(real x) { return real{1} / (real{1} + std::exp(-x)); }

// Each check, called directly on a clean output, passes; the same output
// with its first, middle or last element displaced by 1 + max|value| (the
// injector's perturbation) throws.
TEST(SdcAbft, EveryCheckCatchesOneDisplacedElement) {
  using Check = std::function<void(std::span<const real>)>;
  const auto detects = [](const std::string& name,
                          const std::vector<real>& clean, const Check& check) {
    SCOPED_TRACE(name);
    ASSERT_FALSE(clean.empty());
    EXPECT_NO_THROW(check(clean));
    real max_abs = 0;
    for (real x : clean) max_abs = std::max(max_abs, std::abs(x));
    for (const usize i : {usize{0}, clean.size() / 2, clean.size() - 1}) {
      auto bad = clean;
      bad[i] += 1 + max_abs;
      EXPECT_THROW(check(bad), SilentCorruptionError) << "element " << i;
    }
  };

  const auto X = la::uniform_sparse(60, 24, 0.2, 81);
  const auto Xd = la::csr_to_dense(X);
  const auto a = la::random_vector(60, 82);
  const auto b = la::random_vector(60, 83);
  const auto yn = la::random_vector(24, 84);
  const auto zn = la::random_vector(24, 85);
  const auto om = la::random_vector(60u * 24u, 86);
  const auto vals_s = la::random_vector(static_cast<usize>(X.nnz()), 87);
  const auto vals_d = la::random_vector(60u * 24u, 88);
  kernels::EwiseProgram prog;  // 0.5 * (sigmoid(i0 * i1) + i0)
  prog.num_inputs = 2;
  prog.steps.push_back({kernels::EwiseOp::kMul, 0, 1, 1, nullptr, ""});
  prog.steps.push_back({kernels::EwiseOp::kMap, 2, -1, 1, sigmoid, "sigmoid"});
  prog.steps.push_back({kernels::EwiseOp::kAdd, 3, 0, 1, nullptr, ""});
  prog.steps.push_back({kernels::EwiseOp::kScale, 4, -1, 0.5, nullptr, ""});
  const std::span<const real> ext[] = {a};
  const std::span<const real> chain_in[] = {a, b};

  vgpu::Device dev;
  OpRegistry reg(dev);  // kOff: the dispatches below check nothing
  auto& abft = reg.verifier();
  const auto F = Backend::kFused;

  const auto matrix_checks = [&](const auto& M, std::span<const real> vals,
                                 const std::string& storage) {
    detects("product/" + storage, reg.product(F, M, yn).value,
            [&](auto o) { abft.check_product(o, M, yn); });
    detects("transposed_product/" + storage,
            reg.transposed_product(F, M, a, 0.75).value,
            [&](auto o) { abft.check_transposed_product(o, M, a, 0.75); });
    detects("pattern/" + storage, reg.pattern(F, 0.5, M, a, yn, 2.0, zn).value,
            [&](auto o) { abft.check_pattern(o, 0.5, M, a, yn, 2.0, zn); });
    detects("sparse_mask/" + storage, reg.sparse_mask(F, M, om).value,
            [&](auto o) { abft.check_sparse_mask(o, M, om); });
    detects("masked_product/" + storage,
            reg.masked_product(F, M, vals, yn).value,
            [&](auto o) { abft.check_masked_product(o, M, vals, yn); });
    detects("fused_row/" + storage, reg.fused_row(F, M, yn, prog, ext).value,
            [&](auto o) { abft.check_fused_row(o, M, yn, prog, ext); });
    detects("fused_sddmm/" + storage,
            reg.fused_sddmm(F, M, a, yn, zn, sigmoid, "sigmoid").value,
            [&](auto o) { abft.check_fused_sddmm(o, M, a, yn, zn, sigmoid); });
  };
  matrix_checks(X, vals_s, "csr");
  matrix_checks(Xd, vals_d, "dense");

  std::vector<real> axpy_y = b;
  reg.axpy(F, 1.5, a, axpy_y);
  const auto sa = kernels::AbftVerifier::host_sums(a);
  const auto sb = kernels::AbftVerifier::host_sums(b);
  detects("axpy", axpy_y, [&](auto o) { abft.check_axpy(o, 1.5, sa, sb); });
  std::vector<real> scal_x = a;
  reg.scal(F, -0.25, scal_x);
  detects("scal", scal_x, [&](auto o) { abft.check_scal(o, -0.25, sa); });
  detects("dot", reg.dot(F, a, b).value,
          [&](auto o) { abft.check_dot(o[0], a, b); });
  detects("nrm2", reg.nrm2(F, a).value,
          [&](auto o) { abft.check_nrm2(o[0], a); });
  detects("ewise_mul", reg.ewise_mul(F, a, b).value,
          [&](auto o) { abft.check_ewise_mul(o, a, b); });
  detects("map", reg.map(F, a, sigmoid, "sigmoid").value,
          [&](auto o) { abft.check_map(o, a, sigmoid); });
  detects("fused_ewise", reg.fused_ewise(F, prog, chain_in).value,
          [&](auto o) { abft.check_ewise_chain(o, prog, chain_in); });
  detects("outer_map", reg.outer_map(F, a, yn, sigmoid, "sigmoid").value,
          [&](auto o) { abft.check_outer_map(o, a, yn, sigmoid); });
}

// --- Solver checkpoint/rollback ---------------------------------------------

TEST(SdcCheckpoint, SavesOnCadenceAndRollsBackTransientFaults) {
  vgpu::Device dev;
  sysml::Runtime rt(dev, {});
  sysml::SolverCheckpoint ckpt(rt, /*interval=*/2, /*max_rollbacks=*/2);

  std::vector<real> w = {1, 2, 3};
  real scalar = 10;
  ckpt.track_vector([&] { return w; },
                    [&](const std::vector<real>& s) { w = s; });
  ckpt.track_scalar([&] { return scalar; }, [&](real s) { scalar = s; });

  ckpt.save_if_due(0);
  EXPECT_EQ(ckpt.saves(), 1);
  ckpt.save_if_due(1);  // off-cadence, snapshot exists → no save
  EXPECT_EQ(ckpt.saves(), 1);

  w = {7, 8, 9};
  scalar = -1;
  int resume = -1;
  try {
    throw SilentCorruptionError("abft check failed", 0.5);
  } catch (const Error& e) {
    resume = ckpt.rollback(e);
  }
  EXPECT_EQ(resume, 0);
  EXPECT_EQ(w, (std::vector<real>{1, 2, 3}));
  EXPECT_EQ(scalar, 10);
  EXPECT_EQ(ckpt.rollbacks(), 1);
  EXPECT_EQ(rt.resilience().rollbacks, 1u);

  // Non-transient faults pass through untouched.
  EXPECT_THROW(
      {
        try {
          throw Error("logic bug");
        } catch (const Error& e) {
          ckpt.rollback(e);
        }
      },
      Error);
  EXPECT_EQ(ckpt.rollbacks(), 1);

  // The budget bounds rollback loops: after max_rollbacks, even transient
  // faults rethrow.
  try {
    throw TransferError("pcie", 0.1);
  } catch (const Error& e) {
    ckpt.rollback(e);
  }
  EXPECT_FALSE(ckpt.can_rollback());
  EXPECT_THROW(
      {
        try {
          throw TransferError("pcie", 0.1);
        } catch (const Error& e) {
          ckpt.rollback(e);
        }
      },
      TransferError);
}

// --- Device health board ----------------------------------------------------

TEST(SdcQuarantine, ThresholdProbationAndLastHealthyGuard) {
  serve::QuarantineConfig cfg;
  cfg.sdc_threshold = 2;
  cfg.probation_ms = 10.0;
  double now = 0.0;
  serve::DeviceHealthBoard board(cfg, /*workers=*/3, [&] { return now; });

  board.report_sdc(0, 1);
  EXPECT_FALSE(board.quarantined(0));
  EXPECT_EQ(board.sdc_count(0), 1u);
  board.report_sdc(0, 1);
  EXPECT_TRUE(board.quarantined(0));
  EXPECT_EQ(board.quarantines(), 1u);

  board.report_sdc(1, 5);
  EXPECT_TRUE(board.quarantined(1));

  // Worker 2 is the LAST healthy device — it must keep serving no matter
  // how many detections it accumulates.
  board.report_sdc(2, 100);
  EXPECT_FALSE(board.quarantined(2));

  // Probation expires on the modeled clock; the device re-enters with a
  // cleared count.
  now = 10.1;
  EXPECT_FALSE(board.quarantined(0));
  EXPECT_FALSE(board.quarantined(1));
  EXPECT_EQ(board.reentries(), 2u);
  EXPECT_EQ(board.sdc_count(0), 0u);

  // Zero-count reports are free; a disabled board never quarantines.
  board.report_sdc(0, 0);
  EXPECT_EQ(board.sdc_count(0), 0u);
  serve::QuarantineConfig off;
  off.enabled = false;
  off.sdc_threshold = 1;
  serve::DeviceHealthBoard disabled(off, 2, [&] { return now; });
  disabled.report_sdc(0, 50);
  EXPECT_FALSE(disabled.quarantined(0));
  EXPECT_EQ(disabled.quarantines(), 0u);
}

}  // namespace
}  // namespace fusedml
