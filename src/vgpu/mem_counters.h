// Memory-system event counters — the virtual GPU's equivalent of the NVIDIA
// Visual Profiler metrics the paper reports (e.g. Figure 2-bottom's
// "number of load transactions").
//
// Kernels executed on the virtual device increment these as they touch
// memory; the analytical CostModel then converts them to modeled time.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.h"

namespace fusedml::vgpu {

struct MemCounters {
  // Global memory (DRAM) traffic in 128-byte transactions.
  std::uint64_t gld_transactions = 0;  ///< load transactions that hit DRAM
  std::uint64_t gst_transactions = 0;  ///< store transactions
  std::uint64_t gld_bytes = 0;         ///< useful bytes loaded from DRAM
  std::uint64_t gst_bytes = 0;

  // Loads served by caches rather than DRAM.
  std::uint64_t l2_hit_transactions = 0;  ///< temporal-reuse hits (fused 2nd pass)
  std::uint64_t tex_transactions = 0;     ///< read-only/texture path (y vector)

  // Atomics. Compute capability 3.5 has native integer atomics but NO
  // native double-precision atomicAdd — doubles go through a CAS loop that
  // is several times slower and degrades sharply under contention. The two
  // classes are counted separately so the cost model can price them apart.
  std::uint64_t atomic_global_ops = 0;       ///< double (CAS-loop) atomics
  std::uint64_t atomic_shared_ops = 0;
  /// Number of distinct addresses targeted by double atomics; the cost
  /// model derives the expected contention (ops / distinct).
  std::uint64_t atomic_global_targets = 0;
  std::uint64_t atomic_int_ops = 0;          ///< native integer atomics
  std::uint64_t atomic_int_targets = 0;

  // On-chip.
  std::uint64_t smem_accesses = 0;      ///< shared-memory word accesses
  std::uint64_t smem_bank_conflicts = 0;///< extra serialized passes
  std::uint64_t shuffle_ops = 0;        ///< register shuffle (intra-warp reduce)
  std::uint64_t local_spill_bytes = 0;  ///< register-indexing spills to local mem

  // Work.
  std::uint64_t flops = 0;

  MemCounters& operator+=(const MemCounters& o) {
    gld_transactions += o.gld_transactions;
    gst_transactions += o.gst_transactions;
    gld_bytes += o.gld_bytes;
    gst_bytes += o.gst_bytes;
    l2_hit_transactions += o.l2_hit_transactions;
    tex_transactions += o.tex_transactions;
    atomic_global_ops += o.atomic_global_ops;
    atomic_shared_ops += o.atomic_shared_ops;
    // Targets describe the shared output range, not per-block work: blocks
    // hit the SAME addresses, so the kernel-wide count is the max.
    atomic_global_targets = std::max(atomic_global_targets,
                                     o.atomic_global_targets);
    atomic_int_ops += o.atomic_int_ops;
    atomic_int_targets = std::max(atomic_int_targets, o.atomic_int_targets);
    smem_accesses += o.smem_accesses;
    smem_bank_conflicts += o.smem_bank_conflicts;
    shuffle_ops += o.shuffle_ops;
    local_spill_bytes += o.local_spill_bytes;
    flops += o.flops;
    return *this;
  }

  /// Total DRAM transactions (what Fig. 2-bottom plots for loads).
  std::uint64_t total_load_transactions() const {
    return gld_transactions + tex_transactions;
  }

  std::uint64_t dram_bytes() const { return gld_bytes + gst_bytes; }

  bool operator==(const MemCounters&) const = default;
};

}  // namespace fusedml::vgpu
