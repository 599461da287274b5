#include "kernels/gemv.h"

#include <algorithm>

#include "common/error.h"
#include "kernels/sweep.h"
#include "kernels/texture_model.h"

namespace fusedml::kernels {

namespace {
using vgpu::BlockCtx;
using vgpu::LaunchConfig;
using vgpu::MemPath;
}  // namespace

OpResult gemv_n(vgpu::Device& dev, const la::DenseMatrix& X,
                std::span<const real> y, GemvOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "gemv_n dimension mismatch");
  const auto n = static_cast<usize>(X.cols());
  LaunchConfig cfg = detail::dense_config(dev, X.rows());
  cfg.label = "gemv_n";
  const bool y_resident =
      opts.texture_y && tex_resident(dev.spec(), n * sizeof(real));
  const MemPath y_path = opts.texture_y ? MemPath::kTexture : MemPath::kDram;

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    if (ctx.block_id() == 0 && y_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), n * sizeof(real));
    }
    detail::for_each_dense_row(ctx, cfg, X.rows(), [&](index_t r) {
      const auto row = X.row(r);
      for (int rep = 0; rep < opts.transaction_inflation; ++rep) {
        ctx.mem().load_stream(static_cast<std::uint64_t>(r) * n, n,
                              sizeof(real));
      }
      if (!y_resident) ctx.mem().load_stream(0, n, sizeof(real), y_path);
      ctx.mem().add_flops(2ull * n);
      ctx.counters().shuffle_ops += 31;  // warp reduction of partials
      real s = 0;
      for (usize c = 0; c < n; ++c) s += row[c] * y[c];
      out.value[static_cast<usize>(r)] = s;
    });
  }));
  return out;
}

OpResult gemv_t(vgpu::Device& dev, const la::DenseMatrix& X,
                std::span<const real> p, GemvOptions opts) {
  FUSEDML_CHECK(p.size() == static_cast<usize>(X.rows()),
                "gemv_t dimension mismatch");
  const auto n = static_cast<usize>(X.cols());
  LaunchConfig cfg = detail::dense_config(dev, X.rows());
  cfg.label = "gemv_t";
  const int warps_per_block = cfg.block_size / 32;
  const long long rows_per_block_step =
      static_cast<long long>(warps_per_block) * 32;

  OpResult out;
  out.value.assign(n, real{0});
  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    // Tile scheme: each block owns a slab of 32-row tiles; rows are read
    // coalesced, partial column sums staged through shared memory (bank
    // conflicts per opts), and flushed with one atomic per column per block.
    std::vector<real> partial(n, real{0});
    const long long slab_stride =
        static_cast<long long>(ctx.grid_size()) * rows_per_block_step;
    bool touched = false;
    for (long long r0 = static_cast<long long>(ctx.block_id()) *
                        rows_per_block_step;
         r0 < X.rows(); r0 += slab_stride) {
      const long long r1 =
          std::min<long long>(X.rows(), r0 + rows_per_block_step);
      // p for the slab: coalesced.
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(r0),
                                static_cast<int>(r1 - r0), sizeof(real));
      for (long long r = r0; r < r1; ++r) {
        touched = true;
        const real pr = p[static_cast<usize>(r)];
        const auto row = X.row(static_cast<index_t>(r));
        for (int rep = 0; rep < opts.transaction_inflation; ++rep) {
          ctx.mem().load_stream(static_cast<std::uint64_t>(r) * n, n,
                                sizeof(real));
        }
        ctx.mem().add_flops(2ull * n);
        // Column accumulation through shared-memory tiles.
        ctx.counters().smem_accesses += 2ull * n;
        if (opts.smem_conflict_ways > 1) {
          ctx.counters().smem_bank_conflicts +=
              (2ull * n / 32) * (opts.smem_conflict_ways - 1);
        }
        if (pr != real{0}) {
          for (usize c = 0; c < n; ++c) partial[c] += row[c] * pr;
        }
      }
    }
    if (touched) {
      // One atomic flush per column per block.
      ctx.mem().atomic_global(n, n);
      for (usize c = 0; c < n; ++c) {
        vgpu::atomic_add(out.value[c], partial[c]);
      }
    }
  }));
  return out;
}

}  // namespace fusedml::kernels
