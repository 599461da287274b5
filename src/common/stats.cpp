#include "common/stats.h"

#include <cmath>

#include "common/error.h"

namespace fusedml {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    FUSEDML_CHECK(x > 0.0, "geomean requires strictly positive inputs");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace fusedml
