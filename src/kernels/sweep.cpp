#include "kernels/sweep.h"

#include "kernels/resource_profile.h"

namespace fusedml::kernels::detail {

int resident_blocks(const vgpu::Device& dev, const vgpu::LaunchConfig& cfg) {
  const auto occ =
      vgpu::compute_occupancy(dev.spec(), cfg.block_size, cfg.resources);
  return occ.blocks_per_sm * dev.spec().num_sms;
}

vgpu::LaunchConfig streaming_config(const vgpu::Device& dev, usize n) {
  vgpu::LaunchConfig cfg;
  cfg.block_size = 256;
  cfg.resources = {kBlas1RegsPerThread, 0};
  const auto blocks_needed = static_cast<int>(
      std::min<usize>((n + cfg.block_size - 1) / cfg.block_size,
                      static_cast<usize>(resident_blocks(dev, cfg))));
  cfg.grid_size = std::max(1, blocks_needed);
  return cfg;
}

vgpu::LaunchConfig sparse_config(const vgpu::Device& dev, index_t m, int vs) {
  vgpu::LaunchConfig cfg;
  cfg.block_size = 256;
  cfg.vector_size = vs;
  cfg.resources = {kSpmvRegsPerThread, 0};
  const int resident = std::max(1, resident_blocks(dev, cfg));
  const int blocks_needed =
      static_cast<int>(static_cast<long long>(m) /
                       std::max(1, cfg.block_size / vs)) + 1;
  cfg.grid_size = std::max(1, std::min(resident, blocks_needed));
  const long long total_vectors =
      static_cast<long long>(cfg.grid_size) * (cfg.block_size / vs);
  cfg.coarsening = static_cast<int>((m + total_vectors - 1) / total_vectors);
  return cfg;
}

vgpu::LaunchConfig dense_config(const vgpu::Device& dev, index_t rows) {
  vgpu::LaunchConfig cfg;
  cfg.block_size = 256;
  cfg.resources = {kGemvRegsPerThread, 32 * sizeof(real)};
  cfg.smem_words = 32;
  cfg.grid_size = std::max(1, resident_blocks(dev, cfg));
  const int warps_total = cfg.grid_size * (cfg.block_size / 32);
  cfg.coarsening = static_cast<int>(
      std::max<long long>(1, (rows + warps_total - 1) / warps_total));
  return cfg;
}

}  // namespace fusedml::kernels::detail
