#include "patterns/executor.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fusedml::patterns {

PatternResult PatternExecutor::run(
    const std::function<kernels::KernelOutcome(Backend)>& attempt,
    PatternKind kind, std::span<real> inout) {
  obs::TraceSpan span("pattern:" + to_string(kind), "pattern",
                      obs::Track::kOps);
  kernels::KernelOutcome o =
      registry_.execute_resilient(backend_, retry_, attempt, inout,
                                  &resilience_);
  if (span.active()) span.arg("kernel", o.kernel);
  if (obs::metrics().enabled()) {
    obs::metrics().counter("patterns.calls").add();
  }
  PatternResult out;
  out.value = std::move(o.value);
  out.modeled_ms = o.modeled_ms;
  out.wall_ms = o.wall_ms;
  out.launches = o.launches;
  out.counters = o.counters;
  out.kind = kind;
  out.kernel = std::move(o.kernel);
  out.backend_used = o.backend_used;
  out.resilience = o.resilience;
  return out;
}

PatternResult PatternExecutor::transposed_product(const la::CsrMatrix& X,
                                                  std::span<const real> y,
                                                  real alpha) {
  record(PatternKind::kXty);
  return run(
      [&](Backend b) { return registry_.transposed_product(b, X, y, alpha); },
      PatternKind::kXty);
}

PatternResult PatternExecutor::transposed_product(const la::DenseMatrix& X,
                                                  std::span<const real> y,
                                                  real alpha) {
  record(PatternKind::kXty);
  return run(
      [&](Backend b) { return registry_.transposed_product(b, X, y, alpha); },
      PatternKind::kXty);
}

PatternResult PatternExecutor::product(const la::CsrMatrix& X,
                                       std::span<const real> y) {
  return run([&](Backend b) { return registry_.product(b, X, y); },
             PatternKind::kXty);
}

PatternResult PatternExecutor::product(const la::DenseMatrix& X,
                                       std::span<const real> y) {
  return run([&](Backend b) { return registry_.product(b, X, y); },
             PatternKind::kXty);
}

PatternResult PatternExecutor::axpy(real alpha, std::span<const real> x,
                                    std::span<real> y) {
  return run([&](Backend b) { return registry_.axpy(b, alpha, x, y); },
             PatternKind::kXty, y);
}

PatternResult PatternExecutor::dot(std::span<const real> x,
                                   std::span<const real> y) {
  return run([&](Backend b) { return registry_.dot(b, x, y); },
             PatternKind::kXty);
}

PatternResult PatternExecutor::nrm2(std::span<const real> x) {
  return run([&](Backend b) { return registry_.nrm2(b, x); },
             PatternKind::kXty);
}

PatternResult PatternExecutor::scal(real alpha, std::span<real> x) {
  return run([&](Backend b) { return registry_.scal(b, alpha, x); },
             PatternKind::kXty, x);
}

PatternResult PatternExecutor::pattern(real alpha, const la::CsrMatrix& X,
                                       std::span<const real> v,
                                       std::span<const real> y, real beta,
                                       std::span<const real> z) {
  const bool has_bz = !z.empty() && beta != real{0};
  const PatternKind kind = classify(false, !v.empty(), has_bz);
  record(kind);
  return run(
      [&](Backend b) { return registry_.pattern(b, alpha, X, v, y, beta, z); },
      kind);
}

PatternResult PatternExecutor::pattern(real alpha, const la::DenseMatrix& X,
                                       std::span<const real> v,
                                       std::span<const real> y, real beta,
                                       std::span<const real> z) {
  const bool has_bz = !z.empty() && beta != real{0};
  const PatternKind kind = classify(false, !v.empty(), has_bz);
  record(kind);
  return run(
      [&](Backend b) { return registry_.pattern(b, alpha, X, v, y, beta, z); },
      kind);
}

}  // namespace fusedml::patterns
