// A tiny element-wise "program": the unit of work produced when the fusion
// planner collapses a run of scale/add/mul/map operators into ONE generated
// streaming kernel (the FusionStitching-style generalization of the paper's
// hand-written Equation-1 kernel — see docs/FUSION_PLANNER.md).
//
// The program is a straight-line SSA sequence over element slots: slots
// [0, num_inputs) name the input streams, slot num_inputs + j names the
// result of step j, and the last step is the kernel's output. Evaluation is
// per-element and order-preserving, so a fused chain is bit-exact with the
// operator-at-a-time execution it replaces.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace fusedml::kernels {

enum class EwiseOp {
  kScale,  ///< s = scalar * a
  kAdd,    ///< s = a + b
  kMul,    ///< s = a * b
  kMap,    ///< s = f(a)
};

const char* to_string(EwiseOp op);

struct EwiseStep {
  EwiseOp op{};
  int a = -1;  ///< operand slot (see slot numbering above)
  int b = -1;  ///< second operand slot (kAdd / kMul only)
  real scalar = 1;                 ///< kScale factor
  real (*map_fn)(real) = nullptr;  ///< kMap function
  std::string map_name;            ///< kMap label (codegen + explain)
};

struct EwiseProgram {
  int num_inputs = 0;
  std::vector<EwiseStep> steps;  ///< topological order; last step = output

  bool empty() const { return steps.empty(); }

  /// Canonical text form, e.g. "2in:mul(i0,i1);map[sigmoid](s0);mul(s1,i0)".
  /// Doubles as the kernel-cache key and the explain-plan label.
  std::string signature() const;

  /// Flops the generated kernel performs per output element (maps priced
  /// like the runtime's op_map: 4 flops).
  std::uint64_t flops_per_element() const;

  /// Evaluates ONE element: `slots` holds num_inputs + steps.size()
  /// values with the inputs preloaded; each step writes its slot in SSA
  /// order and the last slot is returned. Every evaluator of a program —
  /// evaluate() below, the generated-chain kernel, the fused row epilogue —
  /// runs this, which is what keeps them bit-exact with one another.
  real eval(std::span<real> slots) const;

  /// Element-wise evaluation over equal-length input streams — the
  /// functional semantics of the generated kernel and of the CPU path.
  std::vector<real> evaluate(
      std::span<const std::span<const real>> inputs) const;

  /// Structural validity: operand slots in range, topological order.
  bool valid() const;
};

}  // namespace fusedml::kernels
