// The three launch shapes of the device kernels (internal to src/kernels).
//
// Every kernel in this directory maps threads to data in one of three ways.
// Each shape's launch geometry and loop skeleton is written here once; a
// kernel supplies only its per-slice, per-warp or per-row body, passed as a
// template parameter so it inlines into the per-warp loop:
//
//   streaming    — grid-stride over n elements in warp-sized slices (BLAS-1,
//                  generated ewise chains, outer maps, masks, the beta*z
//                  initializations of the fused kernels);
//   sparse rows  — the CSR-vector mapping of Alg. 1/2: a vector of VS threads
//                  per row (Eq. 4), 32/VS consecutive rows per warp, row
//                  groups coarsened over a resident grid;
//   dense rows   — one warp per row, rows strided across the grid.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "la/csr_matrix.h"
#include "vgpu/device.h"
#include "vgpu/warp.h"

namespace fusedml::kernels::detail {

/// Blocks of `cfg`'s size and footprint that fit on the device at once.
int resident_blocks(const vgpu::Device& dev, const vgpu::LaunchConfig& cfg);

/// Grid-stride streaming geometry over `n` elements: 256-thread blocks, as
/// many as are needed, capped at the resident grid.
vgpu::LaunchConfig streaming_config(const vgpu::Device& dev, usize n);

/// Sparse-rows geometry for `m` rows at vector size `vs`: a resident grid of
/// 256-thread blocks (no larger than the rows need), vectors coarsened to
/// cover every row.
vgpu::LaunchConfig sparse_config(const vgpu::Device& dev, index_t m, int vs);

/// Dense-rows geometry: the full resident grid of 256-thread blocks, with a
/// 32-word shared staging area for the warp partials.
vgpu::LaunchConfig dense_config(const vgpu::Device& dev, index_t rows);

/// Calls body(i0, lanes) for every warp-sized slice [i0, i0 + lanes) of this
/// block's grid-stride share of [0, n).
template <typename Body>
void for_each_slice(vgpu::BlockCtx& ctx, usize n, Body&& body) {
  const auto bs = static_cast<usize>(ctx.block_size());
  const usize stride = static_cast<usize>(ctx.grid_size()) * bs;
  for (usize chunk = static_cast<usize>(ctx.block_id()) * bs; chunk < n;
       chunk += stride) {
    const usize end = std::min(n, chunk + bs);
    for (usize i0 = chunk; i0 < end; i0 += 32) {
      body(i0, static_cast<int>(std::min<usize>(32, end - i0)));
    }
  }
}

/// One streaming launch over `n` elements: body(ctx, i0, lanes) does both
/// the functional work and the accounting of each slice.
template <typename Body>
vgpu::LaunchStats launch_streaming(vgpu::Device& dev, const char* label,
                                   usize n, Body&& body) {
  vgpu::LaunchConfig cfg = streaming_config(dev, n);
  cfg.label = label;
  return dev.launch(cfg, [&](vgpu::BlockCtx& ctx) {
    for_each_slice(ctx, n, [&](usize i0, int lanes) { body(ctx, i0, lanes); });
  });
}

/// The beta*z initialization of the fused pattern kernels (Alg. 2 L3-4,
/// Alg. 3 L6-7): a grid-stride pass that reads z and atomically adds
/// beta * z into the global w.
inline void init_beta_z(vgpu::BlockCtx& ctx, real beta,
                        std::span<const real> z, std::vector<real>& w) {
  const usize n = w.size();
  for_each_slice(ctx, n, [&](usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));  // z
    ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                            static_cast<std::uint64_t>(n));
    ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      vgpu::atomic_add(w[i0 + l], beta * z[i0 + l]);
    }
  });
}

/// The sparse row sweep of Alg. 1/2 (line 13 geometry): each coarsening step
/// advances the block's row group by the grid's total vector count; within
/// it, each warp takes 32/VS consecutive rows. Charges the warp's row_off
/// load (one coalesced load of rows_here + 1 offsets), then calls
/// body(first_row, rows_here).
template <typename WarpBody>
void for_each_sparse_warp(vgpu::BlockCtx& ctx, const vgpu::LaunchConfig& cfg,
                          index_t rows, WarpBody&& body) {
  const int nv = cfg.num_vectors_per_block();
  const int rows_per_warp = std::max(1, 32 / cfg.vector_size);
  const long long total_vectors = static_cast<long long>(cfg.grid_size) * nv;
  for (int c = 0; c < cfg.coarsening; ++c) {
    const long long block_first_row =
        static_cast<long long>(ctx.block_id()) * nv +
        static_cast<long long>(c) * total_vectors;
    for (int vid0 = 0; vid0 < nv; vid0 += rows_per_warp) {
      const long long first_row = block_first_row + vid0;
      if (first_row >= rows) continue;
      const int rows_here = static_cast<int>(
          std::min<long long>(rows_per_warp, rows - first_row));
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                                rows_here + 1, sizeof(offset_t));
      body(first_row, rows_here);
    }
  }
}

/// The dense row sweep: one warp per row, the block's warp group strided
/// across the grid. Calls body(r) per row, then charges the group's
/// coalesced store of one output per row.
template <typename RowBody>
void for_each_dense_row(vgpu::BlockCtx& ctx, const vgpu::LaunchConfig& cfg,
                        index_t rows, RowBody&& body) {
  const int warps_per_block = cfg.block_size / 32;
  const long long warps_total =
      static_cast<long long>(cfg.grid_size) * warps_per_block;
  for (long long w = ctx.block_id() * warps_per_block; w < rows;
       w += warps_total) {
    for (int ww = 0; ww < warps_per_block; ++ww) {
      const long long r = w + ww;
      if (r >= rows) break;
      body(static_cast<index_t>(r));
    }
    ctx.mem().store_contiguous(
        static_cast<std::uint64_t>(w),
        static_cast<int>(std::min<long long>(warps_per_block, rows - w)),
        sizeof(real));
  }
}

/// Calls body(i, lanes) for each VS-wide chunk [i, i + lanes) of row r's
/// nonzeros — one step of the row's vector.
template <typename Body>
void for_each_row_chunk(const la::CsrMatrix& X, index_t r, int vs,
                        Body&& body) {
  const offset_t end = X.row_end(r);
  for (offset_t i = X.row_begin(r); i < end; i += vs) {
    body(i, static_cast<int>(std::min<offset_t>(vs, end - i)));
  }
}

/// One vector's reduction over row r: lane l accumulates term(k) for the
/// nonzeros k it owns, each step charges `flops_per_nnz` per active lane,
/// and the lanes fold with a shuffle reduction. Only flops and shuffles are
/// charged here; the warp-level memory traffic is charged by the caller
/// through sparse_warp_accounting (loads coalesce ACROSS the warp's vectors,
/// not per vector).
template <typename Term>
real vector_row_sum(vgpu::BlockCtx& ctx, const la::CsrMatrix& X, index_t r,
                    int vs, std::uint64_t flops_per_nnz, Term&& term) {
  std::array<real, 32> lane_sum{};
  for_each_row_chunk(X, r, vs, [&](offset_t i, int lanes) {
    ctx.mem().add_flops(flops_per_nnz * static_cast<std::uint64_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      lane_sum[l] += term(static_cast<usize>(i) + static_cast<usize>(l));
    }
  });
  return vgpu::shuffle_reduce_sum({lane_sum.data(), static_cast<usize>(vs)},
                                  ctx.counters());
}

/// CSR-vector row dot product sum_k vals[k] * y[col_idx[k]] over row r —
/// with vals = X.values() this is the SpMV row product; masked products
/// pass substituted values over X's structure.
inline real vector_row_dot(vgpu::BlockCtx& ctx, const la::CsrMatrix& X,
                           std::span<const real> vals,
                           std::span<const real> y, index_t r, int vs) {
  const auto cols = X.col_idx();
  return vector_row_sum(ctx, X, r, vs, 2, [&](usize k) {
    return vals[k] * y[static_cast<usize>(cols[k])];
  });
}

}  // namespace fusedml::kernels::detail
