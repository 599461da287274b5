#include "kernels/abft.h"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "kernels/blas1.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fusedml::kernels {

const char* to_string(VerifyPolicy policy) {
  switch (policy) {
    case VerifyPolicy::kOff: return "off";
    case VerifyPolicy::kSpot: return "spot";
    case VerifyPolicy::kFull: return "full";
  }
  return "?";
}

bool AbftVerifier::arm() {
  switch (policy_) {
    case VerifyPolicy::kOff: return false;
    case VerifyPolicy::kFull: return true;
    case VerifyPolicy::kSpot: return ++spot_counter_ % kSpotInterval == 0;
  }
  return false;
}

HostSums AbftVerifier::host_sums(std::span<const real> x) {
  HostSums s;
  for (real v : x) {
    s.sum += v;
    s.abs_sum += std::abs(v);
  }
  return s;
}

namespace {
/// dot and |dot| of two host vectors in one pass.
struct DotSums {
  real dot = 0;
  real abs_dot = 0;
};
DotSums host_dot(std::span<const real> x, std::span<const real> y) {
  DotSums s;
  const usize n = x.size() < y.size() ? x.size() : y.size();
  for (usize i = 0; i < n; ++i) {
    const real t = x[i] * y[i];
    s.dot += t;
    s.abs_dot += std::abs(t);
  }
  return s;
}

/// r_i = sum_j X(i,j), summed in storage order.
real row_sum(const MatrixOperand& X, index_t r) {
  real s = 0;
  X.for_row(r, [&](usize, usize, real x) { s += x; });
  return s;
}

/// Per-row sums of term(r, k, c, x) over X's stored entries, and the sums of
/// the terms' absolute values (the tolerance scale of each row).
struct RowTerms {
  std::vector<real> sum;
  std::vector<real> abs_sum;
};
template <typename Term>
RowTerms row_terms(const MatrixOperand& X, Term&& term) {
  const auto rows = static_cast<usize>(X.rows());
  RowTerms t;
  t.sum.assign(rows, real{0});
  t.abs_sum.assign(rows, real{0});
  for (usize r = 0; r < rows; ++r) {
    X.for_row(static_cast<index_t>(r), [&](usize k, usize c, real x) {
      const real v = term(r, k, c, x);
      t.sum[r] += v;
      t.abs_sum[r] += std::abs(v);
    });
  }
  return t;
}

/// Books one check into the metrics registry.
void book(const VerifyCharge& charge) {
  if (!obs::metrics().enabled()) return;
  auto& m = obs::metrics();
  m.counter("verify.checks").add();
  if (charge.launches != 0) m.counter("verify.launches").add(charge.launches);
}

[[noreturn]] void mismatch(const char* what, real observed, real expected,
                           double penalty_ms) {
  if (obs::metrics().enabled()) {
    obs::metrics().counter("verify.mismatches").add();
  }
  std::ostringstream os;
  os << "ABFT checksum mismatch on " << what << ": observed " << observed
     << ", expected " << expected << " — silent data corruption detected";
  throw SilentCorruptionError(os.str(), penalty_ms);
}

real tolerance(real expected, real scale) {
  return kAbftRelTol * (real{1} + std::abs(expected) + std::abs(scale));
}

/// A whole-output checksum: a NaN difference is a mismatch. Host-side checks
/// pass no charge (they launch nothing).
void conclude(const char* what, real observed, real expected, real scale,
              const VerifyCharge& charge = {}) {
  book(charge);
  if (std::abs(observed - expected) <= tolerance(expected, scale)) return;
  mismatch(what, observed, expected, charge.modeled_ms);
}

/// The per-element screen every recomputation check runs on each element:
/// only a difference above tolerance is a mismatch, so a NaN both sides
/// produce (a map outside its domain) passes.
void screen(const char* what, real observed, real expected, real scale,
            double penalty_ms) {
  if (std::abs(observed - expected) > tolerance(expected, scale)) {
    mismatch(what, observed, expected, penalty_ms);
  }
}
}  // namespace

VerifyCharge AbftVerifier::check_sum(const char* what, std::span<const real> w,
                                     real expected, real scale) {
  obs::TraceSpan span(std::string("verify:") + what, "verify",
                      obs::Track::kDispatch);
  const std::vector<real> ones(w.size(), real{1});
  const auto op = dev_dot(dev_, w, ones);
  const VerifyCharge charge{op.launches, op.modeled_ms, op.counters};
  if (dev_.take_silent_corruptions() != 0) {
    if (obs::metrics().enabled()) {
      obs::metrics().counter("verify.mismatches").add();
    }
    throw SilentCorruptionError(
        "ABFT: verification reduction itself was corrupted — recompute",
        charge.modeled_ms);
  }
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude(what, op.value[0], expected, scale, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_rows(const char* what,
                                      std::span<const real> out,
                                      std::span<const real> expected,
                                      std::span<const real> scale) {
  real exp_sum = 0;
  real exp_scale = 0;
  for (usize i = 0; i < expected.size(); ++i) {
    exp_sum += expected[i];
    exp_scale += std::abs(expected[i]) + scale[i];
  }
  const VerifyCharge charge = check_sum(what, out, exp_sum, exp_scale);
  for (usize i = 0; i < out.size(); ++i) {
    screen(what, out[i], expected[i], scale[i], charge.modeled_ms);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_product(std::span<const real> p,
                                         MatrixOperand X,
                                         std::span<const real> y) {
  std::vector<real> col_sums(static_cast<usize>(X.cols()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    X.for_row(r, [&](usize, usize c, real x) { col_sums[c] += x; });
  }
  const DotSums exp = host_dot(col_sums, y);
  return check_sum("product", p, exp.dot, exp.abs_dot);
}

VerifyCharge AbftVerifier::check_transposed_product(std::span<const real> w,
                                                    MatrixOperand X,
                                                    std::span<const real> y,
                                                    real alpha) {
  std::vector<real> row_sums(static_cast<usize>(X.rows()));
  for (index_t r = 0; r < X.rows(); ++r) {
    row_sums[static_cast<usize>(r)] = row_sum(X, r);
  }
  const DotSums exp = host_dot(row_sums, y);
  return check_sum("transposed_product", w, alpha * exp.dot,
                   std::abs(alpha) * exp.abs_dot);
}

VerifyCharge AbftVerifier::check_pattern(std::span<const real> w, real alpha,
                                         MatrixOperand X,
                                         std::span<const real> v,
                                         std::span<const real> y, real beta,
                                         std::span<const real> z) {
  // k = X^T (v ⊙ rowsum(X)), so sum(X^T (v ⊙ Xy)) = <k, y>.
  std::vector<real> k(static_cast<usize>(X.cols()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    const real coeff =
        row_sum(X, r) * (v.empty() ? real{1} : v[static_cast<usize>(r)]);
    if (coeff == real{0}) continue;
    X.for_row(r, [&](usize, usize c, real x) { k[c] += x * coeff; });
  }
  const DotSums ky = host_dot(k, y);
  const HostSums zs = z.empty() ? HostSums{} : host_sums(z);
  return check_sum("pattern", w, alpha * ky.dot + beta * zs.sum,
                   std::abs(alpha) * ky.abs_dot + std::abs(beta) * zs.abs_sum);
}

VerifyCharge AbftVerifier::check_axpy(std::span<const real> y_after, real alpha,
                                      const HostSums& x_before,
                                      const HostSums& y_before) {
  const HostSums after = host_sums(y_after);
  conclude("axpy", after.sum, y_before.sum + alpha * x_before.sum,
           y_before.abs_sum + std::abs(alpha) * x_before.abs_sum +
               after.abs_sum);
  return {};
}

VerifyCharge AbftVerifier::check_scal(std::span<const real> x_after, real alpha,
                                      const HostSums& x_before) {
  const HostSums after = host_sums(x_after);
  conclude("scal", after.sum, alpha * x_before.sum,
           std::abs(alpha) * x_before.abs_sum + after.abs_sum);
  return {};
}

VerifyCharge AbftVerifier::check_dot(real observed, std::span<const real> x,
                                     std::span<const real> y) {
  const DotSums exp = host_dot(x, y);
  conclude("dot", observed, exp.dot, exp.abs_dot);
  return {};
}

VerifyCharge AbftVerifier::check_nrm2(real observed, std::span<const real> x) {
  real ss = 0;
  for (real v : x) ss += v * v;
  conclude("nrm2", observed, std::sqrt(ss), std::sqrt(ss));
  return {};
}

VerifyCharge AbftVerifier::check_ewise_mul(std::span<const real> out,
                                           std::span<const real> x,
                                           std::span<const real> y) {
  const HostSums o = host_sums(out);
  const DotSums exp = host_dot(x, y);
  conclude("ewise_mul", o.sum, exp.dot, exp.abs_dot + o.abs_sum);
  return {};
}

VerifyCharge AbftVerifier::check_map(std::span<const real> out,
                                     std::span<const real> x, real (*f)(real)) {
  book({});
  for (usize i = 0; i < out.size(); ++i) screen("map", out[i], f(x[i]), 0, 0.0);
  return {};
}

VerifyCharge AbftVerifier::check_ewise_chain(
    std::span<const real> out, const EwiseProgram& program,
    std::span<const std::span<const real>> inputs) {
  book({});
  const auto ref = cpu_.ewise_chain(program, inputs);
  for (usize i = 0; i < out.size(); ++i) {
    screen("fused_ewise", out[i], ref.value[i], 0, 0.0);
  }
  return {};
}

VerifyCharge AbftVerifier::check_outer_map(std::span<const real> out,
                                           std::span<const real> u,
                                           std::span<const real> v,
                                           real (*f)(real)) {
  book({});
  const usize n = v.size();
  for (usize i = 0; i < out.size(); ++i) {
    screen("outer_map", out[i], f(u[i / n] * v[i % n]), 0, 0.0);
  }
  return {};
}

VerifyCharge AbftVerifier::check_sparse_mask(std::span<const real> out,
                                             MatrixOperand X,
                                             std::span<const real> om) {
  book({});
  const auto n = static_cast<usize>(X.cols());
  for (index_t r = 0; r < X.rows(); ++r) {
    const usize base = static_cast<usize>(r) * n;
    X.for_row(r, [&](usize k, usize c, real x) {
      screen("sparse_mask", out[k], x * om[base + c], 0, 0.0);
    });
  }
  return {};
}

VerifyCharge AbftVerifier::check_masked_product(std::span<const real> out,
                                                MatrixOperand X,
                                                std::span<const real> vals,
                                                std::span<const real> z) {
  book({});
  const RowTerms rows = row_terms(
      X, [&](usize, usize k, usize c, real) { return vals[k] * z[c]; });
  for (usize r = 0; r < rows.sum.size(); ++r) {
    screen("masked_product", out[r], rows.sum[r], rows.abs_sum[r], 0.0);
  }
  return {};
}

VerifyCharge AbftVerifier::check_fused_row(
    std::span<const real> out, MatrixOperand X, std::span<const real> y,
    const EwiseProgram& program, std::span<const std::span<const real>> ext) {
  // The nonlinear maps in the program rule out a pure checksum, so every
  // row is screened too, at the tolerance scale of its product's terms.
  const RowTerms product =
      row_terms(X, [&](usize, usize, usize c, real x) { return x * y[c]; });
  std::vector<std::span<const real>> inputs;
  inputs.reserve(ext.size() + 1);
  inputs.emplace_back(product.sum);
  for (const auto& e : ext) inputs.push_back(e);
  return check_rows("fused_row", out, program.evaluate(inputs),
                    product.abs_sum);
}

VerifyCharge AbftVerifier::check_fused_sddmm(
    std::span<const real> out, MatrixOperand X, std::span<const real> u,
    std::span<const real> v, std::span<const real> z, real (*f)(real)) {
  const RowTerms rows = row_terms(X, [&](usize r, usize, usize c, real x) {
    return x * f(u[r] * v[c]) * z[c];
  });
  return check_rows("fused_sddmm", out, rows.sum, rows.abs_sum);
}

}  // namespace fusedml::kernels
