#include "kernels/sparse_warp_accounting.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "common/error.h"
#include "vgpu/coalescing.h"

namespace fusedml::kernels::detail {

namespace {
/// Iterates the warp's steps; `addr_of(element_index)` supplies the byte
/// address each lane accesses for CSR element i.
template <typename AddrFn>
PassTraffic sweep(const la::CsrMatrix& X, long long first_row, int rows_here,
                  int vs, usize elem_bytes, AddrFn&& addr_of) {
  PassTraffic out;
  std::array<offset_t, 32> start{};
  std::array<offset_t, 32> end{};
  offset_t max_len = 0;
  for (int v = 0; v < rows_here; ++v) {
    const auto r = static_cast<index_t>(first_row + v);
    start[v] = X.row_begin(r);
    end[v] = X.row_end(r);
    max_len = std::max(max_len, end[v] - start[v]);
  }
  const auto steps = static_cast<offset_t>((max_len + vs - 1) / vs);
  std::array<std::uint64_t, 32> addrs{};
  for (offset_t k = 0; k < steps; ++k) {
    usize active = 0;
    for (int v = 0; v < rows_here; ++v) {
      const offset_t i0 = start[v] + k * vs;
      if (i0 >= end[v]) continue;
      const auto lanes =
          static_cast<int>(std::min<offset_t>(vs, end[v] - i0));
      for (int l = 0; l < lanes; ++l) {
        addrs[active++] = addr_of(static_cast<usize>(i0) + l);
      }
    }
    if (active == 0) break;
    out.transactions +=
        vgpu::gather_transactions({addrs.data(), active});
    out.bytes += active * elem_bytes;
  }
  return out;
}

int rows_per_warp_at(int vs) {
  FUSEDML_CHECK(vs >= 1 && vs <= 32 && (vs & (vs - 1)) == 0,
                "sparse vector size must be a power of two up to 32");
  return 32 / vs;
}

std::uint32_t narrow(std::uint64_t transactions) {
  FUSEDML_CHECK(transactions <= std::numeric_limits<std::uint32_t>::max(),
                "warp group transaction count overflows the traffic table");
  return static_cast<std::uint32_t>(transactions);
}

std::uint64_t nnz_of(const la::CsrMatrix& X, long long first_row,
                     int rows_here) {
  const auto off = X.row_off();
  return static_cast<std::uint64_t>(
      off[static_cast<usize>(first_row + rows_here)] -
      off[static_cast<usize>(first_row)]);
}
}  // namespace

PassTraffic warp_rows_pass(const la::CsrMatrix& X, long long first_row,
                           int rows_here, int vs, usize elem_bytes) {
  return sweep(X, first_row, rows_here, vs, elem_bytes,
               [elem_bytes](usize i) {
                 return static_cast<std::uint64_t>(i) * elem_bytes;
               });
}

PassTraffic warp_rows_y_gather(const la::CsrMatrix& X, long long first_row,
                               int rows_here, int vs) {
  const auto cols = X.col_idx();
  return sweep(X, first_row, rows_here, vs, sizeof(real), [cols](usize i) {
    return static_cast<std::uint64_t>(cols[i]) * sizeof(real);
  });
}

WarpTraffic::WarpTraffic(const la::CsrMatrix& X, int vs)
    : rows_per_warp_(rows_per_warp_at(vs)) {
  const long long rows = X.rows();
  groups_.reserve(static_cast<usize>((rows + rows_per_warp_ - 1) /
                                     rows_per_warp_));
  for (long long first = 0; first < rows; first += rows_per_warp_) {
    const auto here =
        static_cast<int>(std::min<long long>(rows_per_warp_, rows - first));
    groups_.push_back(
        {narrow(warp_rows_pass(X, first, here, vs, sizeof(real)).transactions),
         narrow(warp_rows_pass(X, first, here, vs, sizeof(index_t))
                    .transactions),
         narrow(warp_rows_y_gather(X, first, here, vs).transactions)});
  }
}

const WarpGroupTraffic& WarpTraffic::group_of(long long first_row) const {
  return groups_[static_cast<usize>(first_row / rows_per_warp_)];
}

void WarpTraffic::charge_pass(vgpu::MemTracker& mem, const la::CsrMatrix& X,
                              long long first_row, int rows_here,
                              vgpu::MemPath path) const {
  const auto& g = group_of(first_row);
  const std::uint64_t nnz = nnz_of(X, first_row, rows_here);
  mem.load_precomputed(g.values, nnz * sizeof(real), path);
  mem.load_precomputed(g.cols, nnz * sizeof(index_t), path);
}

void WarpTraffic::charge_gather(vgpu::MemTracker& mem, const la::CsrMatrix& X,
                                long long first_row, int rows_here,
                                vgpu::MemPath path) const {
  mem.load_precomputed(group_of(first_row).gather,
                       nnz_of(X, first_row, rows_here) * sizeof(real), path);
}

std::shared_ptr<const WarpTraffic> warp_traffic(const la::CsrMatrix& X,
                                                int vs) {
  rows_per_warp_at(vs);  // rejects a VS that would alias another's slot
  return X.structure_memo<WarpTraffic>(
      static_cast<usize>(std::countr_zero(static_cast<unsigned>(vs))),
      [&] { return WarpTraffic(X, vs); });
}

}  // namespace fusedml::kernels::detail
