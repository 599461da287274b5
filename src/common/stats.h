// Small descriptive-statistics helpers for bench result reporting. The one
// quantile definition lives in obs::Histogram::percentile (nearest-rank).
#pragma once

#include <span>

namespace fusedml {

/// Arithmetic mean. Returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Geometric mean — the right way to average speedups. All inputs must be > 0.
double geomean(std::span<const double> xs);

}  // namespace fusedml
