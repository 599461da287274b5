#include "kernels/ewise_program.h"

#include <sstream>

#include "common/error.h"

namespace fusedml::kernels {

const char* to_string(EwiseOp op) {
  switch (op) {
    case EwiseOp::kScale: return "scale";
    case EwiseOp::kAdd: return "add";
    case EwiseOp::kMul: return "mul";
    case EwiseOp::kMap: return "map";
  }
  return "?";
}

namespace {
std::string slot_name(int slot, int num_inputs) {
  std::string name(slot < num_inputs ? "i" : "s");
  name += std::to_string(slot < num_inputs ? slot : slot - num_inputs);
  return name;
}
}  // namespace

std::string EwiseProgram::signature() const {
  std::ostringstream os;
  os << num_inputs << "in:";
  for (usize j = 0; j < steps.size(); ++j) {
    const EwiseStep& s = steps[j];
    if (j != 0) os << ";";
    os << to_string(s.op);
    if (s.op == EwiseOp::kMap) os << "[" << s.map_name << "]";
    if (s.op == EwiseOp::kScale) os << "[" << s.scalar << "]";
    os << "(" << slot_name(s.a, num_inputs);
    if (s.op == EwiseOp::kAdd || s.op == EwiseOp::kMul) {
      os << "," << slot_name(s.b, num_inputs);
    }
    os << ")";
  }
  return os.str();
}

std::uint64_t EwiseProgram::flops_per_element() const {
  std::uint64_t flops = 0;
  for (const EwiseStep& s : steps) {
    flops += s.op == EwiseOp::kMap ? 4 : 1;
  }
  return flops;
}

bool EwiseProgram::valid() const {
  if (num_inputs < 1 || steps.empty()) return false;
  for (usize j = 0; j < steps.size(); ++j) {
    const EwiseStep& s = steps[j];
    const int limit = num_inputs + static_cast<int>(j);
    const bool binary = s.op == EwiseOp::kAdd || s.op == EwiseOp::kMul;
    if (s.a < 0 || s.a >= limit) return false;
    if (binary && (s.b < 0 || s.b >= limit)) return false;
    if (s.op == EwiseOp::kMap && s.map_fn == nullptr) return false;
  }
  return true;
}

real EwiseProgram::eval(std::span<real> slots) const {
  for (usize j = 0; j < steps.size(); ++j) {
    const EwiseStep& s = steps[j];
    const real a = slots[static_cast<usize>(s.a)];
    real r = 0;
    switch (s.op) {
      case EwiseOp::kScale: r = s.scalar * a; break;
      case EwiseOp::kAdd: r = a + slots[static_cast<usize>(s.b)]; break;
      case EwiseOp::kMul: r = a * slots[static_cast<usize>(s.b)]; break;
      case EwiseOp::kMap: r = s.map_fn(a); break;
    }
    slots[static_cast<usize>(num_inputs) + j] = r;
  }
  return slots.back();
}

std::vector<real> EwiseProgram::evaluate(
    std::span<const std::span<const real>> inputs) const {
  FUSEDML_CHECK(valid(), "invalid ewise program");
  FUSEDML_CHECK(inputs.size() == static_cast<usize>(num_inputs),
                "ewise program input-count mismatch");
  const usize n = inputs.empty() ? 0 : inputs[0].size();
  for (const auto& in : inputs) {
    FUSEDML_CHECK(in.size() == n, "ewise program inputs must be same length");
  }

  std::vector<real> out(n);
  std::vector<real> slots(static_cast<usize>(num_inputs) + steps.size());
  for (usize i = 0; i < n; ++i) {
    for (usize k = 0; k < inputs.size(); ++k) slots[k] = inputs[k][i];
    out[i] = eval(slots);
  }
  return out;
}

}  // namespace fusedml::kernels
