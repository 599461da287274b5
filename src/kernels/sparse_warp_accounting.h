// Warp-level transaction accounting for CSR row sweeps.
//
// A warp holds 32/VS vectors working on consecutive rows; at each step its
// 32 lanes issue ONE memory instruction whose addresses span all those
// vectors' current chunks. Because CSR stores consecutive rows
// contiguously, short rows coalesce across vectors — the property that
// makes CSR-vector efficient at small row lengths. Charging per vector
// would overcount transactions by up to 32/VS for short rows, so the
// sparse kernels charge per warp.
//
// Those counts depend only on row_off, col_idx, VS and the 128-byte
// segment — never on values, the launch's grid or its coarsening — so they
// are computed once per (matrix structure, VS): warp_traffic() sweeps every
// warp group of 32/VS consecutive rows step by step (warp_rows_pass /
// warp_rows_y_gather) and memoizes the per-group totals. Every sparse row
// sweep looks its table up before Device::launch and charges each warp
// from it; no launch runs the per-step sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "la/csr_matrix.h"
#include "vgpu/mem_tracker.h"

namespace fusedml::kernels::detail {

struct PassTraffic {
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
};

/// Traffic of one warp-synchronous pass over the CSR element array
/// (values or col_idx, selected by elem_bytes) of `rows_here` consecutive
/// rows starting at `first_row`, with VS lanes per row.
PassTraffic warp_rows_pass(const la::CsrMatrix& X, long long first_row,
                           int rows_here, int vs, usize elem_bytes);

/// Traffic of the warp's gather loads of y[col_idx[i]] over the same sweep
/// (8-byte elements).
PassTraffic warp_rows_y_gather(const la::CsrMatrix& X, long long first_row,
                               int rows_here, int vs);

/// Transactions of one warp group's sweep; the bytes follow from the
/// group's nonzero count (row_off), so they are not stored.
struct WarpGroupTraffic {
  std::uint32_t values = 0;  ///< value-array loads
  std::uint32_t cols = 0;    ///< col_idx loads
  std::uint32_t gather = 0;  ///< y[col_idx] gathers
};

/// The per-warp-group transaction table of one CSR structure at one VS.
/// Immutable once built; group g covers rows [g * 32/VS, (g + 1) * 32/VS).
class WarpTraffic {
 public:
  WarpTraffic(const la::CsrMatrix& X, int vs);

  int rows_per_warp() const { return rows_per_warp_; }
  std::span<const WarpGroupTraffic> groups() const { return groups_; }

  /// Charges the values and col_idx loads of the warp whose `rows_here`
  /// rows start at `first_row` (a multiple of rows_per_warp()) to `path`.
  void charge_pass(vgpu::MemTracker& mem, const la::CsrMatrix& X,
                   long long first_row, int rows_here,
                   vgpu::MemPath path) const;

  /// Charges the same warp's gathers of y[col_idx] to `path`.
  void charge_gather(vgpu::MemTracker& mem, const la::CsrMatrix& X,
                     long long first_row, int rows_here,
                     vgpu::MemPath path) const;

 private:
  int rows_per_warp_;
  std::vector<WarpGroupTraffic> groups_;

  const WarpGroupTraffic& group_of(long long first_row) const;
};

/// X's table at vector size `vs` (a power of two up to 32): built on first
/// use, thread-safely, into X's structure memo, so every copy of X shares it
/// and it is freed with the last of them.
std::shared_ptr<const WarpTraffic> warp_traffic(const la::CsrMatrix& X,
                                                int vs);

}  // namespace fusedml::kernels::detail
