#include "kernels/fused_sparse.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "kernels/resource_profile.h"
#include "kernels/sparse_warp_accounting.h"
#include "kernels/sweep.h"
#include "kernels/texture_model.h"

namespace fusedml::kernels {

namespace {
using vgpu::BlockCtx;
using vgpu::LaunchConfig;
using vgpu::MemPath;

/// Applies user overrides on top of the §3.3 model and re-derives the
/// dependent quantities (coarsening, shared-memory size).
tuner::SparseParams resolve_params(const vgpu::Device& dev, index_t m,
                                   index_t n, double mu,
                                   const FusedSparseOptions& opts) {
  auto params = tuner::sparse_launch_params(dev.spec(), m, n, mu,
                                            opts.aggregation);
  bool dirty = false;
  if (opts.vector_size > 0) {
    params.config.vector_size = opts.vector_size;
    dirty = true;
  }
  if (opts.block_size > 0) {
    params.config.block_size = opts.block_size;
    dirty = true;
  }
  if (opts.grid_size > 0) {
    params.config.grid_size = opts.grid_size;
    dirty = true;
  }
  if (dirty) {
    const int vs = params.config.vector_size;
    const int bs = params.config.block_size;
    // Each warp must hold whole row groups of 32/VS rows, or two blocks
    // would sweep the same rows.
    FUSEDML_CHECK(bs % 32 == 0,
                  "block size must be a multiple of the warp size");
    FUSEDML_CHECK(bs % vs == 0, "block size must be a multiple of VS");
    params.shared_aggregation =
        params.shared_aggregation &&
        tuner::shared_aggregation_feasible(dev.spec(), n, vs);
    params.config.resources.smem_per_block =
        params.shared_aggregation
            ? sparse_fused_smem_bytes(bs, vs, n)
            : sparse_fused_smem_bytes_global_agg(bs, vs);
    params.config.smem_words =
        params.config.resources.smem_per_block / sizeof(real);
    params.occupancy = vgpu::compute_occupancy(dev.spec(), bs,
                                               params.config.resources);
    if (opts.grid_size == 0) {
      params.config.grid_size = std::max(
          1, params.occupancy.blocks_per_sm * dev.spec().num_sms);
    }
    const long long total_vectors =
        static_cast<long long>(params.config.grid_size) * (bs / vs);
    params.config.coarsening = static_cast<int>(
        std::max<long long>(1, (m + total_vectors - 1) / total_vectors));
  }
  if (opts.coarsening > 0) params.config.coarsening = opts.coarsening;
  return params;
}

/// §3's cache-residency condition: the second pass over a row is an L2 hit
/// when all concurrently processed rows fit in L2.
MemPath second_pass_path(const vgpu::Device& dev,
                         const tuner::SparseParams& params, double mu,
                         bool enabled) {
  if (!enabled) return MemPath::kDram;
  const double active_vectors =
      static_cast<double>(params.occupancy.active_threads_per_sm) /
      params.config.vector_size * dev.spec().num_sms;
  const double row_bytes = mu * (sizeof(real) + sizeof(index_t));
  return active_vectors * row_bytes <= static_cast<double>(dev.spec().l2_bytes)
             ? MemPath::kL2
             : MemPath::kDram;
}

/// Aggregates X[r,:]^T * pr into w (Alg. 1/2 L13-14), charging
/// `flops_per_nnz` per active lane: into the block's shared partial w at
/// `sd_base` when `shared`, else straight to global w with one atomic per
/// nonzero (the large-n variant), where alpha is applied on the way.
void scatter_row(BlockCtx& ctx, const la::CsrMatrix& X, index_t r, int vs,
                 real pr, real alpha, bool shared, usize sd_base,
                 std::uint64_t flops_per_nnz, std::vector<real>& w) {
  const auto cols = X.col_idx();
  const auto vals = X.values();
  std::array<usize, 32> words{};
  detail::for_each_row_chunk(X, r, vs, [&](offset_t i, int lanes) {
    ctx.mem().add_flops(flops_per_nnz * static_cast<std::uint64_t>(lanes));
    const auto k0 = static_cast<usize>(i);
    if (shared) {
      for (int l = 0; l < lanes; ++l) {
        words[l] = sd_base + static_cast<usize>(cols[k0 + l]);
      }
      ctx.smem().warp_access({words.data(), static_cast<usize>(lanes)});
      for (int l = 0; l < lanes; ++l) {
        ctx.smem().atomic_add(sd_base + static_cast<usize>(cols[k0 + l]),
                              vals[k0 + l] * pr);
      }
    } else {
      ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                              static_cast<std::uint64_t>(w.size()));
      for (int l = 0; l < lanes; ++l) {
        vgpu::atomic_add(w[static_cast<usize>(cols[k0 + l])],
                         alpha * vals[k0 + l] * pr);
      }
    }
  });
}

/// __syncthreads, then the inter-block aggregation of the shared partial w
/// (Alg. 1 L15-16 / Alg. 2 L16-18): one global atomic per column, alpha
/// applied on the way, `flops_per_elem` charged per column.
void flush_shared_w(BlockCtx& ctx, usize sd_base, real alpha,
                    std::uint64_t flops_per_elem, std::vector<real>& w) {
  const usize n = w.size();
  for (usize i = 0; i < n; i += 32) {
    const int lanes = static_cast<int>(std::min<usize>(32, n - i));
    ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                            static_cast<std::uint64_t>(n));
    ctx.mem().add_flops(flops_per_elem * static_cast<std::uint64_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      vgpu::atomic_add(w[i + l], alpha * ctx.smem().load(sd_base + i + l));
    }
  }
}

}  // namespace

tuner::SparseParams fused_sparse_params(const vgpu::Device& dev,
                                        const la::CsrMatrix& X,
                                        const FusedSparseOptions& opts) {
  return resolve_params(dev, X.rows(), X.cols(), X.mean_nnz_per_row(), opts);
}

OpResult fused_spmv_t(vgpu::Device& dev, const la::CsrMatrix& X,
                      std::span<const real> p, real alpha,
                      FusedSparseOptions opts) {
  FUSEDML_CHECK(p.size() == static_cast<usize>(X.rows()),
                "fused_spmv_t: p must have m entries");
  const double mu = X.mean_nnz_per_row();
  const auto params = resolve_params(dev, X.rows(), X.cols(), mu, opts);
  const bool shared = params.shared_aggregation;
  const int vs = params.config.vector_size;
  // Staging | partial w: the partial starts after one word per vector.
  const auto sd_base =
      static_cast<usize>(params.config.num_vectors_per_block());
  // Single pass over X here (p is given), so every load is a cold load.
  const auto traffic = detail::warp_traffic(X, vs);

  OpResult out;
  out.value.assign(static_cast<usize>(X.cols()), real{0});

  LaunchConfig cfg = params.config;
  cfg.label = "fused_spmv_t";
  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    detail::for_each_sparse_warp(ctx, cfg, X.rows(), [&](long long first_row,
                                                        int rows_here) {
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                                rows_here, sizeof(real));  // p[row]
      traffic->charge_pass(ctx.mem(), X, first_row, rows_here, MemPath::kDram);
      for (int v = 0; v < rows_here; ++v) {
        const auto r = static_cast<index_t>(first_row + v);
        scatter_row(ctx, X, r, vs, p[static_cast<usize>(r)], alpha, shared,
                    sd_base, 1, out.value);
      }
    });
    if (shared) flush_shared_w(ctx, sd_base, alpha, 0, out.value);
  }));
  return out;
}

OpResult fused_pattern_sparse(vgpu::Device& dev, real alpha,
                              const la::CsrMatrix& X, std::span<const real> v,
                              std::span<const real> y, real beta,
                              std::span<const real> z,
                              FusedSparseOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "fused_pattern_sparse: y must have n entries");
  FUSEDML_CHECK(v.empty() || v.size() == static_cast<usize>(X.rows()),
                "fused_pattern_sparse: v must have m entries or be empty");
  FUSEDML_CHECK(z.empty() || z.size() == static_cast<usize>(X.cols()),
                "fused_pattern_sparse: z must have n entries or be empty");
  const double mu = X.mean_nnz_per_row();
  const auto params = resolve_params(dev, X.rows(), X.cols(), mu, opts);
  const bool shared = params.shared_aggregation;
  const int vs = params.config.vector_size;
  const auto sd_base =
      static_cast<usize>(params.config.num_vectors_per_block());
  const bool y_resident =
      opts.texture_y && tex_resident(dev.spec(), y.size() * sizeof(real));
  const MemPath y_path =
      opts.texture_y ? MemPath::kTexture : MemPath::kDram;
  const MemPath pass2 =
      second_pass_path(dev, params, mu, opts.cache_second_pass);
  const bool has_beta = !z.empty() && beta != real{0};
  const auto traffic = detail::warp_traffic(X, vs);

  OpResult out;
  out.value.assign(static_cast<usize>(X.cols()), real{0});

  LaunchConfig cfg = params.config;
  cfg.label = "fused_pattern_sparse";
  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    if (ctx.block_id() == 0 && y_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), y.size() * sizeof(real));
    }
    // beta * z initialization (Alg. 2 L3-4).
    if (has_beta) detail::init_beta_z(ctx, beta, z, out.value);

    // The fused row sweep (Alg. 2 L5-15).
    detail::for_each_sparse_warp(ctx, cfg, X.rows(), [&](long long first_row,
                                                        int rows_here) {
      if (!v.empty()) {
        ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                                  rows_here, sizeof(real));  // v[row]
      }
      // First pass over the warp's rows: cold loads + y gathers (skipped
      // when y is texture-resident — only the fill was charged).
      traffic->charge_pass(ctx.mem(), X, first_row, rows_here, MemPath::kDram);
      if (!y_resident) {
        traffic->charge_gather(ctx.mem(), X, first_row, rows_here, y_path);
      }
      // Second pass: same data while still cache-resident.
      traffic->charge_pass(ctx.mem(), X, first_row, rows_here, pass2);
      for (int vv = 0; vv < rows_here; ++vv) {
        const auto r = static_cast<index_t>(first_row + vv);
        // First pass: p[r] = X[r,:] * y (Alg. 2 L10-11), reduced in
        // registers, then v ⊙ (L12).
        real pr = detail::vector_row_dot(ctx, X, X.values(), y, r, vs);
        if (!v.empty()) {
          pr *= v[static_cast<usize>(r)];
          ctx.mem().add_flops(1);
        }
        // Second pass: scatter X[r,:]^T * p[r] (Alg. 2 L13-14) — loads
        // already charged above at the pass2 (cache) path.
        scatter_row(ctx, X, r, vs, pr, alpha, shared, sd_base, 2, out.value);
      }
    });
    if (shared) flush_shared_w(ctx, sd_base, alpha, 1, out.value);
  }));
  return out;
}

}  // namespace fusedml::kernels
