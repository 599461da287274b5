// The benchmark's three workloads (README.md explains why each exists):
//   eq1-kdd       — back-to-back fused Equation-1 evaluations through the
//                   op registry on an ultra-sparse KDD-like matrix;
//   scripts-higgs — the nine script_library() algorithms, planner mode,
//                   round robin on dense HIGGS-like inputs;
//   serve-mixed   — a 2-worker serve::Server driven by a closed loop of 4
//                   in-flight pattern and script requests.
// Each run does a fixed amount of work (whole cycles of its mix) derived
// from --seconds by a fixed rate, never a time window, so two runs at one
// seed execute the same items in the same order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome/Perfetto JSON of the traced run
  /// Self-test hook: corrupt the outputs of the first `perturb` timed items
  /// before they are checked, to prove the checks can fail.
  int perturb = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< why `correct` is false
  std::uint64_t input_digest = 0;   ///< hash of the generated inputs
};

const std::vector<std::string>& workload_names();

/// Runs one workload in this process. Untraced runs report the end-to-end
/// metrics; traced runs report the per-layer metrics and write the spans.
Result run_workload(const Options& opts);

/// Name and unit of every per-layer metric, in report order. A traced run
/// of any workload reports all of them; a layer the workload does not
/// reach reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

}  // namespace perfbench
