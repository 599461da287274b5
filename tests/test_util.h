// Shared helpers for the fusedml test suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "la/csr_matrix.h"
#include "la/vector_ops.h"

namespace fusedml::test {

/// Asserts two vectors match within an absolute-plus-relative tolerance.
/// Atomic aggregation orders differ between backends, so results are equal
/// only up to floating-point reassociation.
inline void expect_vectors_near(std::span<const real> expected,
                                std::span<const real> actual,
                                real tol = 1e-9) {
  ASSERT_EQ(expected.size(), actual.size());
  for (usize i = 0; i < expected.size(); ++i) {
    const real scale = std::max<real>(1.0, std::abs(expected[i]));
    ASSERT_NEAR(expected[i], actual[i], tol * scale)
        << "at index " << i;
  }
}

/// A CSR matrix shaped to stress warp-level accounting: every 7th row is
/// empty, row 5 holds 32 * 32 + 37 nonzeros (longer than a 32-lane vector
/// covers in 32 steps), and other rows hold 1 .. 2 * mean_nnz - 1 nonzeros at
/// random columns. Pick `rows` off a multiple of 32 for a ragged last warp.
inline la::CsrMatrix ragged_csr(index_t rows, index_t cols, index_t mean_nnz,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<offset_t> row_off{0};
  std::vector<index_t> col_idx;
  std::vector<real> values;
  for (index_t r = 0; r < rows; ++r) {
    index_t k = 0;
    if (r == 5) {
      k = std::min<index_t>(cols, 32 * 32 + 37);
    } else if (r % 7 != 0) {
      k = 1 + static_cast<index_t>(rng.uniform_index(
                  static_cast<std::uint64_t>(2 * mean_nnz - 1)));
    }
    for (const index_t c : rng.sample_without_replacement(cols, k)) {
      col_idx.push_back(c);
      values.push_back(rng.uniform(-1.0, 1.0));
    }
    row_off.push_back(static_cast<offset_t>(col_idx.size()));
  }
  return la::CsrMatrix(rows, cols, std::move(row_off), std::move(col_idx),
                       std::move(values));
}

}  // namespace fusedml::test
