// Compressed Sparse Row storage — the format the paper's sparse kernels
// (and cuSPARSE) operate on: (values, col_idx, row_off).
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.h"

namespace fusedml::la {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of the three CSR arrays. Validates structure:
  /// row_off has rows+1 monotone entries, col indices in range and
  /// strictly increasing within each row.
  CsrMatrix(index_t rows, index_t cols, std::vector<offset_t> row_off,
            std::vector<index_t> col_idx, std::vector<real> values);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  offset_t nnz() const { return static_cast<offset_t>(values_.size()); }

  std::span<const offset_t> row_off() const { return row_off_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const real> values() const { return values_; }
  /// Values may change in place; the structure (row_off, col_idx) never
  /// does once constructed.
  std::span<real> values_mut() { return values_; }

  /// Slots of structure_memo(). The kernels keep their warp-traffic table
  /// for vector size 2^k in slot k.
  static constexpr usize kStructureMemoSlots = 6;

  /// Data derived from the sparsity structure (row_off, col_idx) alone,
  /// built by build() on first use of `slot` and shared by every copy of
  /// this matrix (copies share the structure, which never changes) until
  /// the last of them is destroyed. Thread-safe: build() runs at most once
  /// per slot, under the memo's lock. A slot always holds the same type T.
  template <typename T, typename Build>
  std::shared_ptr<const T> structure_memo(usize slot, Build&& build) const {
    // A default-constructed or moved-from matrix has no memo.
    if (!memo_) return std::make_shared<const T>(build());
    const std::lock_guard lock(memo_->mutex);
    auto& entry = memo_->slots.at(slot);
    if (!entry) entry = std::make_shared<const T>(build());
    return std::static_pointer_cast<const T>(entry);
  }

  /// Non-zeros of row r: [row_off[r], row_off[r+1]).
  offset_t row_begin(index_t r) const { return row_off_[static_cast<usize>(r)]; }
  offset_t row_end(index_t r) const { return row_off_[static_cast<usize>(r) + 1]; }
  index_t row_nnz(index_t r) const {
    return static_cast<index_t>(row_end(r) - row_begin(r));
  }

  /// Mean non-zeros per row (mu in Eq. 4). 0 for an empty matrix.
  double mean_nnz_per_row() const {
    return rows_ == 0 ? 0.0
                      : static_cast<double>(nnz()) / static_cast<double>(rows_);
  }

  index_t max_nnz_per_row() const;

  /// Device footprint: values (8B) + col_idx (4B) + row_off (8B each).
  usize bytes() const {
    return values_.size() * sizeof(real) + col_idx_.size() * sizeof(index_t) +
           row_off_.size() * sizeof(offset_t);
  }

  /// Compares contents; the structure memo is not part of the value.
  bool operator==(const CsrMatrix& other) const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<offset_t> row_off_;
  std::vector<index_t> col_idx_;
  std::vector<real> values_;

  struct StructureMemo {
    std::mutex mutex;
    std::array<std::shared_ptr<const void>, kStructureMemoSlots> slots;
  };
  std::shared_ptr<StructureMemo> memo_;
};

}  // namespace fusedml::la
