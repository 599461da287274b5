// Golden counters for every device kernel and every verified registry
// dispatch. Each case runs one kernel on small seeded CSR / dense inputs and
// renders everything the cost model and the benches consume into one
// string: the value vector (length + a hash of its bit patterns), every
// MemCounters field, the launch count, the modeled milliseconds as a
// hexfloat, and the label and grid/block shape of every launch. The strings
// are exact: any refactor of the kernels layer must reproduce them digit for
// digit, so a moved accounting call or a reordered reduction shows up here
// even when the looser EXPECT_NEAR checks elsewhere still pass.
//
// On a mismatch the failure message prints the new fingerprint in table
// form; an intended change to the cost model refreezes the table by pasting
// those lines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kernels/baselines.h"
#include "kernels/blas1.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_row.h"
#include "kernels/fused_sparse.h"
#include "kernels/gemv.h"
#include "kernels/op_registry.h"
#include "kernels/spmv.h"
#include "kernels/spmv_transpose.h"
#include "la/generate.h"
#include "obs/trace.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

namespace fusedml::kernels {
namespace {

// --- Fingerprints -----------------------------------------------------------

std::string hexfloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

/// FNV-1a over the bit patterns of the values: equal hashes mean (in
/// practice) a bitwise-identical vector.
std::string value_hash(const std::vector<real>& value) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const real v : value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string counters_string(const vgpu::MemCounters& c) {
  const std::uint64_t fields[] = {
      c.gld_transactions,  c.gst_transactions,    c.gld_bytes,
      c.gst_bytes,         c.l2_hit_transactions, c.tex_transactions,
      c.atomic_global_ops, c.atomic_shared_ops,   c.atomic_global_targets,
      c.atomic_int_ops,    c.atomic_int_targets,  c.smem_accesses,
      c.smem_bank_conflicts, c.shuffle_ops,       c.local_spill_bytes,
      c.flops};
  std::string s = "c=";
  for (usize i = 0; i < std::size(fields); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(fields[i]);
  }
  return s;
}

/// Labels and grid/block shapes of every launch recorded since the last
/// clear(), in launch order.
std::string launch_labels() {
  std::string s = "k=";
  bool first = true;
  for (const auto& ev : obs::recorder().snapshot()) {
    if (!ev.has_kernel) continue;
    if (!first) s += ";";
    first = false;
    s += ev.name + "/" + std::to_string(ev.kernel.grid_size) + "x" +
         std::to_string(ev.kernel.block_size);
  }
  return s;
}

std::string fingerprint(const OpResult& r) {
  return "n=" + std::to_string(r.value.size()) + " h=" +
         value_hash(r.value) + " L=" + std::to_string(r.launches) +
         " ms=" + hexfloat(r.modeled_ms) + " " + counters_string(r.counters) +
         " " + launch_labels();
}

std::string fingerprint(const KernelOutcome& r) {
  return "n=" + std::to_string(r.value.size()) + " h=" +
         value_hash(r.value) + " L=" + std::to_string(r.launches) +
         " ms=" + hexfloat(r.modeled_ms) + " vL=" +
         std::to_string(r.verify_launches) + " vms=" + hexfloat(r.verify_ms) +
         " sdc=" + std::to_string(r.resilience.sdc_detected) +
         " b=" + to_string(r.backend_used) + " kernel=" + r.kernel + " " +
         counters_string(r.counters) + " " + launch_labels();
}

/// Compares `actual` with the frozen fingerprint of `name`.
void expect_golden(const std::map<std::string, std::string>& golden,
                   const std::string& name, const std::string& actual) {
  const auto it = golden.find(name);
  if (it == golden.end() || it->second != actual) {
    ADD_FAILURE() << "fingerprint drift for " << name << "\n    {\"" << name
                  << "\",\n     \"" << actual << "\"},";
  }
}

/// Enables the trace recorder for the duration of a test so launch labels
/// can be read back; clear() rewinds it between cases.
struct RecorderScope {
  RecorderScope() { obs::recorder().enable(); }
  ~RecorderScope() { obs::recorder().disable(); }
};

// --- Inputs -----------------------------------------------------------------

real sigmoid(real x) { return real{1} / (real{1} + std::exp(-x)); }

/// Short rows (VS = 4) and long power-law rows (VS = 32), one dense matrix.
struct Inputs {
  la::CsrMatrix Xs = la::uniform_sparse(300, 200, 0.03, 11);
  la::CsrMatrix Xk = la::kdd_like(240, 3000, 40.0, 1.0, 12);
  la::DenseMatrix Xd = la::dense_random(97, 40, 13);

  std::vector<real> ys_n = la::random_vector(200, 21);    // Xs cols
  std::vector<real> ys_m = la::random_vector(300, 22);    // Xs rows
  std::vector<real> ys_n2 = la::random_vector(200, 24);
  std::vector<real> yk_n = la::random_vector(3000, 25);   // Xk cols
  std::vector<real> yk_m = la::random_vector(240, 26);    // Xk rows
  std::vector<real> yk_n2 = la::random_vector(3000, 27);
  std::vector<real> yd_n = la::random_vector(40, 28);     // Xd cols
  std::vector<real> yd_m = la::random_vector(97, 29);     // Xd rows
  std::vector<real> yd_n2 = la::random_vector(40, 31);
  std::vector<real> a = la::random_vector(1000, 32);
  std::vector<real> b = la::random_vector(1000, 33);

  /// Elementwise epilogue over two inputs: 0.5 * (sigmoid(i0 * i1) + i0).
  EwiseProgram program() const {
    EwiseProgram p;
    p.num_inputs = 2;
    p.steps.push_back({EwiseOp::kMul, 0, 1, 1, nullptr, ""});
    p.steps.push_back({EwiseOp::kMap, 2, -1, 1, sigmoid, "sigmoid"});
    p.steps.push_back({EwiseOp::kAdd, 3, 0, 1, nullptr, ""});
    p.steps.push_back({EwiseOp::kScale, 4, -1, 0.5, nullptr, ""});
    return p;
  }
};

FusedSparseOptions aggregation(tuner::Aggregation agg) {
  FusedSparseOptions o;
  o.aggregation = agg;
  return o;
}

// --- Device kernels ---------------------------------------------------------

const std::map<std::string, std::string>& kernel_golden() {
  static const std::map<std::string, std::string> g = {
      {"spmv_csr_vector/short",
       "n=300 h=3e7286880181a398 L=1 ms=0x1.5e1b9dbb7f262p-8 c=578,38,24280,2400,0,182,0,0,0,0,0,0,0,900,0,3596 k=spmv_csr_vector/5x256"},
      {"spmv_csr_vector/long",
       "n=240 h=69d265e867cfddd9 L=1 ms=0x1.99171c4c7ebd4p-8 c=1996,240,117852,1920,0,2632,0,0,0,0,0,0,0,7440,0,19002 k=spmv_csr_vector/31x256"},
      {"spmv_csr_vector/fixed_vs_no_tex",
       "n=300 h=5fed39629c38cf8e L=1 ms=0x1.ae88fd0ab1f2dp-8 c=2525,300,40760,2400,0,0,0,0,0,0,0,0,0,9300,0,3596 k=spmv_csr_vector/38x256"},
      {"spmv_csr_scalar/short",
       "n=300 h=fde5e0dd1a669591 L=1 ms=0x1.8c9a1e6b6ca74p-8 c=1874,19,31248,2400,0,684,0,0,0,0,0,0,0,0,0,3596 k=spmv_csr_scalar/2x256"},
      {"spmv_csr_scalar/long",
       "n=240 h=ae369fedf15157a8 L=1 ms=0x1.fe73df0cc9e32p-7 c=19025,15,154000,1920,0,6762,0,0,0,0,0,0,0,0,0,19002 k=spmv_csr_scalar/1x256"},
      {"spmv_t_atomic_scatter/short",
       "n=200 h=a85ea36da51fc4ee L=1 ms=0x1.6e9a4631bdf4p-8 c=616,0,26680,0,0,0,1798,0,200,0,0,0,0,0,0,1798 k=spmv_t_atomic_scatter/112x256"},
      {"spmv_t_atomic_scatter/long",
       "n=3000 h=058674c9291c9584 L=1 ms=0x1.ea35850f5628dp-8 c=2236,0,119772,0,0,0,9501,0,3000,0,0,0,0,0,0,9501 k=spmv_t_atomic_scatter/112x256"},
      {"spmv_t_explicit_transpose/short",
       "n=200 h=8c58a8181393ad6a L=4 ms=0x1.bb2f80cd6062cp-6 c=783,7273,57944,26376,0,266,0,0,0,3596,200,0,0,1400,0,3596 k=transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/7x256"},
      {"fused_spmv_t/shared",
       "n=200 h=07942e067987dd0f L=1 ms=0x1.9d1c1cf5aa538p-8 c=616,0,26680,0,0,0,5600,1798,200,0,0,9196,45,0,0,1798 k=fused_spmv_t/28x640"},
      {"fused_spmv_t/global",
       "n=3000 h=215692fddd97f9d6 L=1 ms=0x1.ea35850f5628dp-8 c=2236,0,119772,0,0,0,9501,0,3000,0,0,0,0,0,0,9501 k=fused_spmv_t/28x640"},
      {"fused_pattern_sparse/shared",
       "n=200 h=d3d726a22d45802f L=1 ms=0x1.a0777aba9965p-8 c=629,0,28280,0,522,182,5800,1798,200,0,0,9196,45,900,0,13292 k=fused_pattern_sparse/28x640"},
      {"fused_pattern_sparse/global",
       "n=3000 h=dc5b15211be77fc9 L=1 ms=0x1.06043ddc2218bp-7 c=2424,0,143772,0,1741,2632,12501,0,3000,0,0,0,0,7440,0,41244 k=fused_pattern_sparse/28x640"},
      {"fused_pattern_sparse/shared_no_v_no_z",
       "n=3000 h=84571e18fa8f120a L=1 ms=0x1.50586699a9e94p-6 c=1996,0,117852,0,1741,2632,84000,9501,3000,0,0,103002,732,7440,0,122004 k=fused_pattern_sparse/28x640"},
      {"fused_pattern_sparse/uncached_second_pass",
       "n=200 h=d3d726a22d45802f L=1 ms=0x1.ce0cf717b25cap-8 c=1881,0,64240,0,0,0,5800,1798,200,0,0,9196,45,900,0,13292 k=fused_pattern_sparse/28x640"},
      {"dev_masked_spmv",
       "n=300 h=6649f1e5f46fa0ca L=1 ms=0x1.5e1b9dbb7f262p-8 c=578,38,24280,2400,0,182,0,0,0,0,0,0,0,900,0,3596 k=masked_spmv/5x256"},
      {"dev_fused_row/csr",
       "n=300 h=a7cc92a7de70d276 L=1 ms=0x1.5f7dcd43a37c3p-8 c=616,38,26680,2400,0,182,0,0,0,0,0,0,0,900,0,5696 k=fused_row/5x256"},
      {"dev_fused_sddmm/csr",
       "n=300 h=f95ae159cb529a4a L=1 ms=0x1.5f7dcd43a37c3p-8 c=616,38,26680,2400,0,350,0,0,0,0,0,0,0,900,0,12586 k=fused_sddmm/5x256"},
      {"dev_fused_sddmm/csr_long",
       "n=240 h=6634fa7c8a33436c L=1 ms=0x1.a740da740da74p-8 c=2236,240,119772,1920,0,5250,0,0,0,0,0,0,0,7440,0,66507 k=fused_sddmm/31x256"},
      {"gemv_n",
       "n=97 h=db6687a7246d0d2a L=1 ms=0x1.547ef53216eb6p-8 c=339,13,31040,776,0,42,0,0,0,0,0,0,0,3007,0,7760 k=gemv_n/112x256"},
      {"gemv_n/cublas",
       "n=97 h=db6687a7246d0d2a L=1 ms=0x1.6b6efbbfcfa62p-8 c=969,13,93120,776,0,0,0,0,0,0,0,0,0,3007,0,7760 k=gemv_n/112x256"},
      {"gemv_t/bidmat",
       "n=40 h=591a057b08c45bd2 L=1 ms=0x1.549c09ce3e8d2p-8 c=346,0,31816,0,0,0,40,0,40,0,0,7760,0,0,0,7760 k=gemv_t/112x256"},
      {"gemv_t/cublas",
       "n=40 h=591a057b08c45bd2 L=1 ms=0x1.60f3bf5024644p-8 c=685,0,62856,0,0,0,40,0,40,0,0,7760,1358,0,0,7760 k=gemv_t/112x256"},
      {"dev_masked_gemv",
       "n=97 h=a833422932ef55c4 L=1 ms=0x1.547ef53216eb6p-8 c=339,13,31040,776,0,42,0,0,0,0,0,0,0,3007,0,7760 k=masked_gemv/112x256"},
      {"dev_fused_row/dense",
       "n=97 h=ab771891be927243 L=1 ms=0x1.5807103607e1fp-8 c=436,13,31816,776,0,42,0,0,0,0,0,0,0,3007,0,8439 k=fused_row_dense/112x256"},
      {"dev_fused_sddmm/dense",
       "n=97 h=708f0d4ecd3dade0 L=1 ms=0x1.5807103607e1fp-8 c=436,13,31816,776,0,70,0,0,0,0,0,0,0,3007,0,27160 k=fused_sddmm_dense/112x256"},
      {"fused_pattern_dense",
       "n=40 h=eaadf1ab5e5b827b L=1 ms=0x1.fab98dacb6a06p-8 c=584,0,50760,0,0,56,6248,0,40,0,0,0,0,3007,0,19537 k=fused_pattern_dense/112x128"},
      {"baseline_pattern_sparse/explicit",
       "n=200 h=82cac47f80753dc8 L=8 ms=0x1.8a06789353575p-5 c=2176,7768,95120,34376,0,448,0,0,0,3596,200,0,0,15500,0,8092 k=spmv_csr_vector/38x256;ewise_mul/2x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;axpy/1x256"},
      {"baseline_pattern_sparse/atomic",
       "n=3000 h=faf56940f0592494 L=5 ms=0x1.df8cef163212bp-6 c=4826,631,313464,51840,0,2632,9501,0,3000,0,0,0,0,7440,0,37743 k=spmv_csr_vector/31x256;ewise_mul/1x256;spmv_t_atomic_scatter/112x256;scal/12x256;axpy/12x256"},
      {"baseline_pattern_dense/cublas",
       "n=40 h=72c46a0e32c0162d L=5 ms=0x1.a6890cb354cd1p-6 c=1386,26,127448,2192,0,42,40,0,40,0,0,7760,1358,3007,0,15737 k=gemv_n/112x256;ewise_mul/1x256;gemv_t/112x256;scal/1x256;axpy/1x256"},
      {"dev_outer_map",
       "n=3880 h=caaadce2f8e64a8d L=1 ms=0x1.6238da3c21188p-8 c=486,243,62080,31040,0,0,0,0,0,0,0,0,0,0,0,19400 k=outer_map/16x256"},
      {"dev_mask_values/csr",
       "n=1798 h=523d8203f8ab8787 L=1 ms=0x1.87fa649dafd88p-8 c=1653,113,35960,14384,0,0,0,0,0,0,0,0,0,0,0,1798 k=mask_values/8x256"},
      {"dev_mask_values/dense",
       "n=3880 h=8f176906a17d324e L=1 ms=0x1.6238da3c21188p-8 c=486,243,62080,31040,0,0,0,0,0,0,0,0,0,0,0,3880 k=mask_values_dense/16x256"},
      {"dev_axpy",
       "n=1000 h=a8f0f35c9946d6e6 L=1 ms=0x1.4e8fb00bcbe62p-8 c=126,63,16000,8000,0,0,0,0,0,0,0,0,0,0,0,2000 k=axpy/4x256"},
      {"dev_scal",
       "n=1000 h=51973bf338f7d852 L=1 ms=0x1.4c447c30d306ap-8 c=63,63,8000,8000,0,0,0,0,0,0,0,0,0,0,0,1000 k=scal/4x256"},
      {"dev_dot",
       "n=1 h=06c7eefb059271a5 L=1 ms=0x1.4c4d5234f2c2ap-8 c=126,0,16000,0,0,0,4,0,1,0,0,32,0,992,0,2000 k=dot/4x256"},
      {"dev_nrm2",
       "n=1 h=72a6a8eaba79923c L=1 ms=0x1.4a021e59f9e33p-8 c=63,0,8000,0,0,0,4,0,1,0,0,32,0,992,0,2000 k=nrm2/4x256"},
      {"dev_ewise_mul",
       "n=1000 h=9a2d2e86689cc632 L=1 ms=0x1.4e8fb00bcbe62p-8 c=126,63,16000,8000,0,0,0,0,0,0,0,0,0,0,0,1000 k=ewise_mul/4x256"},
      {"dev_scale_into",
       "n=1000 h=b6fba55cfbf526e3 L=1 ms=0x1.4c447c30d306ap-8 c=63,63,8000,8000,0,0,0,0,0,0,0,0,0,0,0,1000 k=scale_into/4x256"},
      {"dev_map",
       "n=1000 h=66a41cd5fb572e12 L=1 ms=0x1.4c447c30d306ap-8 c=63,63,8000,8000,0,0,0,0,0,0,0,0,0,0,0,4000 k=map/4x256"},
      {"dev_ewise_chain",
       "n=1000 h=70897a8e6434dde9 L=1 ms=0x1.4e8fb00bcbe62p-8 c=126,63,16000,8000,0,0,0,0,0,0,0,0,0,0,0,7000 k=ewise_chain/4x256"},
  };
  return g;
}

TEST(KernelGolden, EveryDeviceKernelIsPinned) {
  RecorderScope rec;
  const Inputs in;
  const EwiseProgram prog = in.program();
  using Run = std::function<OpResult(vgpu::Device&)>;
  const std::vector<std::pair<std::string, Run>> cases = {
      // Sparse vector-per-row sweeps.
      {"spmv_csr_vector/short",
       [&](vgpu::Device& d) { return spmv_csr_vector(d, in.Xs, in.ys_n); }},
      {"spmv_csr_vector/long",
       [&](vgpu::Device& d) { return spmv_csr_vector(d, in.Xk, in.yk_n); }},
      {"spmv_csr_vector/fixed_vs_no_tex",
       [&](vgpu::Device& d) {
         SpmvOptions o;
         o.texture_y = false;
         o.adaptive_vs = false;
         return spmv_csr_vector(d, in.Xs, in.ys_n, o);
       }},
      {"spmv_csr_scalar/short",
       [&](vgpu::Device& d) { return spmv_csr_scalar(d, in.Xs, in.ys_n); }},
      {"spmv_csr_scalar/long",
       [&](vgpu::Device& d) { return spmv_csr_scalar(d, in.Xk, in.yk_n); }},
      {"spmv_t_atomic_scatter/short",
       [&](vgpu::Device& d) {
         return spmv_t_atomic_scatter(d, in.Xs, in.ys_m);
       }},
      {"spmv_t_atomic_scatter/long",
       [&](vgpu::Device& d) {
         return spmv_t_atomic_scatter(d, in.Xk, in.yk_m);
       }},
      {"spmv_t_explicit_transpose/short",
       [&](vgpu::Device& d) {
         auto split = spmv_t_explicit_transpose(d, in.Xs, in.ys_m);
         split.multiply.absorb_timing(split.transpose);
         return split.multiply;
       }},
      {"fused_spmv_t/shared",
       [&](vgpu::Device& d) {
         return fused_spmv_t(d, in.Xs, in.ys_m, 0.75,
                             aggregation(tuner::Aggregation::kShared));
       }},
      {"fused_spmv_t/global",
       [&](vgpu::Device& d) {
         return fused_spmv_t(d, in.Xk, in.yk_m, 0.75,
                             aggregation(tuner::Aggregation::kGlobal));
       }},
      {"fused_pattern_sparse/shared",
       [&](vgpu::Device& d) {
         return fused_pattern_sparse(d, 0.5, in.Xs, in.ys_m, in.ys_n, 2.0,
                                     in.ys_n2,
                                     aggregation(tuner::Aggregation::kShared));
       }},
      {"fused_pattern_sparse/global",
       [&](vgpu::Device& d) {
         return fused_pattern_sparse(d, 0.5, in.Xk, in.yk_m, in.yk_n, 2.0,
                                     in.yk_n2,
                                     aggregation(tuner::Aggregation::kGlobal));
       }},
      {"fused_pattern_sparse/shared_no_v_no_z",
       [&](vgpu::Device& d) {
         return fused_pattern_sparse(d, 1.0, in.Xk, {}, in.yk_n, 0.0, {},
                                     aggregation(tuner::Aggregation::kShared));
       }},
      {"fused_pattern_sparse/uncached_second_pass",
       [&](vgpu::Device& d) {
         FusedSparseOptions o;
         o.cache_second_pass = false;
         o.texture_y = false;
         return fused_pattern_sparse(d, 0.5, in.Xs, in.ys_m, in.ys_n, 2.0,
                                     in.ys_n2, o);
       }},
      {"dev_masked_spmv",
       [&](vgpu::Device& d) {
         const auto vals = la::random_vector(
             static_cast<usize>(in.Xs.nnz()), 40);
         return dev_masked_spmv(d, in.Xs, vals, in.ys_n);
       }},
      {"dev_fused_row/csr",
       [&](vgpu::Device& d) {
         const std::span<const real> ext[] = {in.ys_m};
         return dev_fused_row(d, in.Xs, in.ys_n, prog, ext);
       }},
      {"dev_fused_sddmm/csr",
       [&](vgpu::Device& d) {
         return dev_fused_sddmm(d, in.Xs, in.ys_m, in.ys_n, in.ys_n2,
                                sigmoid);
       }},
      {"dev_fused_sddmm/csr_long",
       [&](vgpu::Device& d) {
         return dev_fused_sddmm(d, in.Xk, in.yk_m, in.yk_n, in.yk_n2,
                                sigmoid);
       }},
      // Dense row-per-warp sweeps and the dense transposed product.
      {"gemv_n",
       [&](vgpu::Device& d) { return gemv_n(d, in.Xd, in.yd_n); }},
      {"gemv_n/cublas",
       [&](vgpu::Device& d) {
         GemvOptions o;
         o.transaction_inflation = kCublasTransactionInflation;
         o.texture_y = false;
         return gemv_n(d, in.Xd, in.yd_n, o);
       }},
      {"gemv_t/bidmat",
       [&](vgpu::Device& d) { return gemv_t(d, in.Xd, in.yd_m); }},
      {"gemv_t/cublas",
       [&](vgpu::Device& d) {
         GemvOptions o;
         o.smem_conflict_ways = kCublasConflictWays;
         o.transaction_inflation = kCublasTransactionInflation;
         return gemv_t(d, in.Xd, in.yd_m, o);
       }},
      {"dev_masked_gemv",
       [&](vgpu::Device& d) {
         const auto vals = la::random_vector(in.Xd.data().size(), 41);
         return dev_masked_gemv(d, in.Xd, vals, in.yd_n);
       }},
      {"dev_fused_row/dense",
       [&](vgpu::Device& d) {
         const std::span<const real> ext[] = {in.yd_m};
         return dev_fused_row(d, in.Xd, in.yd_n, prog, ext);
       }},
      {"dev_fused_sddmm/dense",
       [&](vgpu::Device& d) {
         return dev_fused_sddmm(d, in.Xd, in.yd_m, in.yd_n, in.yd_n2,
                                sigmoid);
       }},
      {"fused_pattern_dense",
       [&](vgpu::Device& d) {
         return fused_pattern_dense(d, 0.5, in.Xd, in.yd_m, in.yd_n, 2.0,
                                    in.yd_n2);
       }},
      // Multi-kernel baselines built from the kernels above.
      {"baseline_pattern_sparse/explicit",
       [&](vgpu::Device& d) {
         return baseline_pattern_sparse(
             d, 0.5, in.Xs, in.ys_m, in.ys_n, 2.0, in.ys_n2,
             SparseTransposeStrategy::kExplicitTranspose);
       }},
      {"baseline_pattern_sparse/atomic",
       [&](vgpu::Device& d) {
         return baseline_pattern_sparse(
             d, 0.5, in.Xk, in.yk_m, in.yk_n, 2.0, in.yk_n2,
             SparseTransposeStrategy::kAtomicScatter);
       }},
      {"baseline_pattern_dense/cublas",
       [&](vgpu::Device& d) {
         return baseline_pattern_dense(d, 0.5, in.Xd, in.yd_m, in.yd_n, 2.0,
                                       in.yd_n2, DenseFlavor::kCublas);
       }},
      // Streaming shapes: outer map, masks, BLAS-1 and the ewise chain.
      {"dev_outer_map",
       [&](vgpu::Device& d) {
         return dev_outer_map(d, in.yd_m, in.yd_n, sigmoid);
       }},
      {"dev_mask_values/csr",
       [&](vgpu::Device& d) {
         const auto om = la::random_vector(300u * 200u, 42);
         return dev_mask_values(d, in.Xs, om);
       }},
      {"dev_mask_values/dense",
       [&](vgpu::Device& d) {
         const auto om = la::random_vector(in.Xd.data().size(), 43);
         return dev_mask_values(d, in.Xd, om);
       }},
      {"dev_axpy",
       [&](vgpu::Device& d) {
         auto y = in.b;
         return dev_axpy(d, 1.5, in.a, y);
       }},
      {"dev_scal",
       [&](vgpu::Device& d) {
         auto x = in.a;
         return dev_scal(d, -0.25, x);
       }},
      {"dev_dot", [&](vgpu::Device& d) { return dev_dot(d, in.a, in.b); }},
      {"dev_nrm2", [&](vgpu::Device& d) { return dev_nrm2(d, in.a); }},
      {"dev_ewise_mul",
       [&](vgpu::Device& d) { return dev_ewise_mul(d, in.a, in.b); }},
      {"dev_scale_into",
       [&](vgpu::Device& d) { return dev_scale_into(d, 3.0, in.a); }},
      {"dev_map",
       [&](vgpu::Device& d) { return dev_map(d, in.a, sigmoid); }},
      {"dev_ewise_chain",
       [&](vgpu::Device& d) {
         const std::span<const real> inputs[] = {in.a, in.b};
         return dev_ewise_chain(d, prog, inputs);
       }},
  };
  for (const auto& [name, run] : cases) {
    vgpu::Device dev;
    obs::recorder().clear();
    const OpResult r = run(dev);
    expect_golden(kernel_golden(), name, fingerprint(r));
  }
}

// --- Verified registry dispatch --------------------------------------------

const std::map<std::string, std::string>& registry_golden() {
  static const std::map<std::string, std::string> g = {
      {"transposed_product/csr/fused",
       "n=200 h=07942e067987dd0f L=2 ms=0x1.78bd12f072995p-3 vL=1 vms=0x1.48a28aecf9edbp-8 sdc=2 b=fused kernel=fused_spmv_t (Alg. 1) c=642,0,29880,0,0,0,5601,1798,200,0,0,9204,45,217,0,2198 k=fused_spmv_t/28x640;dot/1x256;fused_spmv_t/28x640;dot/1x256;fused_spmv_t/28x640;dot/1x256"},
      {"transposed_product/csr/cusparse",
       "n=200 h=e113fee5ff5ecba3 L=6 ms=0x1.0c3227e88ee7dp-2 vL=1 vms=0x1.48a28aecf9edbp-8 sdc=2 b=cuBLAS/cuSPARSE-style kernel=csr2csc + csrmv c=1076,7436,63944,27976,0,266,1,0,1,3596,200,8,0,6417,0,4196 k=transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;dot/1x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;dot/1x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;dot/1x256"},
      {"transposed_product/csr/bidmat",
       "n=3000 h=9f610fe353cd9496 L=3 ms=0x1.5f6ecd71c71a7p-4 vL=1 vms=0x1.557bd8ab5bdf1p-8 sdc=1 b=BIDMat-GPU-style kernel=atomic-scatter spmv_t c=2800,188,191772,24000,0,0,9513,0,3000,0,0,96,0,2914,0,18501 k=spmv_t_atomic_scatter/112x256;scal/12x256;dot/12x256;spmv_t_atomic_scatter/112x256;scal/12x256;dot/12x256"},
      {"transposed_product/dense/cusparse",
       "n=40 h=83c09c2a96762b13 L=3 ms=0x1.a572847d14b23p-2 vL=1 vms=0x1.47e821111cb2fp-8 sdc=3 b=cuBLAS/cuSPARSE-style kernel=gemv_t c=694,3,63816,320,0,0,41,0,40,0,0,7768,1358,62,0,7880 k=gemv_t/112x256;scal/1x256;dot/1x256;gemv_t/112x256;scal/1x256;dot/1x256;gemv_t/112x256;scal/1x256;dot/1x256;gemv_t/112x256;scal/1x256;dot/1x256"},
      {"product/csr",
       "n=300 h=3e7286880181a398 L=2 ms=0x1.21b2d2d09ce6p-4 vL=1 vms=0x1.4914926301a38p-8 sdc=1 b=fused kernel=csrmv c=616,38,29080,2400,0,182,2,0,1,0,0,16,0,1210,0,4196 k=spmv_csr_vector/5x256;dot/2x256;spmv_csr_vector/5x256;dot/2x256"},
      {"product/dense",
       "n=97 h=db6687a7246d0d2a L=2 ms=0x1.4e58d380c60e2p-7 vL=1 vms=0x1.4832b1cf7530dp-8 sdc=0 b=fused kernel=gemv c=353,13,32592,776,0,42,1,0,1,0,0,8,0,3131,0,7954 k=gemv_n/112x256;dot/1x256"},
      {"pattern/csr/fused",
       "n=200 h=d3d726a22d45802f L=2 ms=0x1.748d02d3c9a96p-7 vL=1 vms=0x1.48a28aecf9edbp-8 sdc=0 b=fused kernel=fused_pattern_sparse (Alg. 2) c=655,0,31480,0,522,182,5801,1798,200,0,0,9204,45,1117,0,13692 k=fused_pattern_sparse/28x640;dot/1x256"},
      {"pattern/csr/cusparse",
       "n=200 h=e2430eb4678d87a1 L=0 ms=0x1.e021414b0feb2p+0 vL=0 vms=0x0p+0 sdc=6 b=CPU (MKL-like) kernel=cpu pattern [after fallback] c=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0 k=spmv_csr_vector/38x256;ewise_mul/2x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;axpy/1x256;dot/1x256;spmv_csr_vector/38x256;ewise_mul/2x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;axpy/1x256;dot/1x256;spmv_csr_vector/38x256;ewise_mul/2x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;axpy/1x256;dot/1x256;spmv_csr_vector/38x256;ewise_mul/2x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;axpy/1x256;dot/1x256;spmv_csr_vector/38x256;ewise_mul/2x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;axpy/1x256;dot/1x256;spmv_csr_vector/38x256;ewise_mul/2x256;transpose_histogram/8x256;transpose_scan/1x256;transpose_scatter/8x256;spmv_csr_vector/26x256;scal/1x256;axpy/1x256;dot/1x256"},
      {"pattern/csr/bidmat",
       "n=3000 h=faf56940f0592494 L=6 ms=0x1.e742bf6d51521p-4 vL=1 vms=0x1.557bd8ab5bdf1p-8 sdc=1 b=BIDMat-GPU-style kernel=csrmv + blas1 + atomic-scatter c=5202,631,361464,51840,0,2632,9513,0,3000,0,0,96,0,10354,0,43743 k=spmv_csr_vector/31x256;ewise_mul/1x256;spmv_t_atomic_scatter/112x256;scal/12x256;axpy/12x256;dot/12x256;spmv_csr_vector/31x256;ewise_mul/1x256;spmv_t_atomic_scatter/112x256;scal/12x256;axpy/12x256;dot/12x256"},
      {"pattern/dense/fused",
       "n=40 h=eaadf1ab5e5b827b L=2 ms=0x1.a150d75ee9a9ap-7 vL=1 vms=0x1.47e821111cb2fp-8 sdc=0 b=fused kernel=fused_pattern_dense (Alg. 3, codegen) c=590,0,51400,0,0,56,6249,0,40,0,0,8,0,3069,0,19617 k=fused_pattern_dense/112x128;dot/1x256"},
      {"pattern/dense/cusparse",
       "n=40 h=72c46a0e32c0162d L=6 ms=0x1.c90e57489ac9bp-4 vL=1 vms=0x1.47e821111cb2fp-8 sdc=1 b=cuBLAS/cuSPARSE-style kernel=gemv + blas1 + gemv_t (cuBLAS tiles) c=1392,26,128088,2192,0,42,41,0,40,0,0,7768,1358,3069,0,15817 k=gemv_n/112x256;ewise_mul/1x256;gemv_t/112x256;scal/1x256;axpy/1x256;dot/1x256;gemv_n/112x256;ewise_mul/1x256;gemv_t/112x256;scal/1x256;axpy/1x256;dot/1x256"},
      {"axpy",
       "n=1000 h=a8f0f35c9946d6e6 L=1 ms=0x1.4e8fb00bcbe62p-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=axpy c=126,63,16000,8000,0,0,0,0,0,0,0,0,0,0,0,2000 k=axpy/4x256"},
      {"scal",
       "n=1000 h=51973bf338f7d852 L=1 ms=0x1.4c447c30d306ap-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=scal c=63,63,8000,8000,0,0,0,0,0,0,0,0,0,0,0,1000 k=scal/4x256"},
      {"dot",
       "n=1 h=06c7eefb059271a5 L=1 ms=0x1.4c4d5234f2c2ap-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=dot c=126,0,16000,0,0,0,4,0,1,0,0,32,0,992,0,2000 k=dot/4x256"},
      {"nrm2",
       "n=1 h=72a6a8eaba79923c L=1 ms=0x1.4a021e59f9e33p-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=nrm2 c=63,0,8000,0,0,0,4,0,1,0,0,32,0,992,0,2000 k=nrm2/4x256"},
      {"ewise_mul",
       "n=1000 h=9a2d2e86689cc632 L=1 ms=0x1.4e8fb00bcbe62p-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=ewise_mul c=126,63,16000,8000,0,0,0,0,0,0,0,0,0,0,0,1000 k=ewise_mul/4x256"},
      {"map",
       "n=1000 h=66a41cd5fb572e12 L=1 ms=0x1.4c447c30d306ap-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=sigmoid c=63,63,8000,8000,0,0,0,0,0,0,0,0,0,0,0,4000 k=map/4x256"},
      {"fused_ewise",
       "n=1000 h=70897a8e6434dde9 L=1 ms=0x1.ed3d859c8c932p-5 vL=0 vms=0x0p+0 sdc=1 b=fused kernel=ewise2_mul_map_sigmoid_add_scale c=126,63,16000,8000,0,0,0,0,0,0,0,0,0,0,0,7000 k=ewise_chain/4x256;ewise_chain/4x256"},
      {"outer_map",
       "n=3880 h=caaadce2f8e64a8d L=1 ms=0x1.6238da3c21188p-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=outer_map sigmoid c=486,243,62080,31040,0,0,0,0,0,0,0,0,0,0,0,19400 k=outer_map/16x256"},
      {"sparse_mask/csr",
       "n=1798 h=523d8203f8ab8787 L=1 ms=0x1.87fa649dafd88p-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=mask_values c=1653,113,35960,14384,0,0,0,0,0,0,0,0,0,0,0,1798 k=mask_values/8x256"},
      {"sparse_mask/dense",
       "n=3880 h=8f176906a17d324e L=1 ms=0x1.6238da3c21188p-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=mask_values c=486,243,62080,31040,0,0,0,0,0,0,0,0,0,0,0,3880 k=mask_values_dense/16x256"},
      {"masked_product/csr",
       "n=300 h=6649f1e5f46fa0ca L=1 ms=0x1.5e1b9dbb7f262p-8 vL=0 vms=0x0p+0 sdc=0 b=fused kernel=masked csrmv c=578,38,24280,2400,0,182,0,0,0,0,0,0,0,900,0,3596 k=masked_spmv/5x256"},
      {"masked_product/dense",
       "n=97 h=a833422932ef55c4 L=1 ms=0x1.eeb956e61f548p-5 vL=0 vms=0x0p+0 sdc=1 b=fused kernel=masked gemv c=339,13,31040,776,0,42,0,0,0,0,0,0,0,3007,0,7760 k=masked_gemv/112x256;masked_gemv/112x256"},
      {"fused_row/csr",
       "n=300 h=a7cc92a7de70d276 L=2 ms=0x1.54492fd3528fep-7 vL=1 vms=0x1.4914926301a38p-8 sdc=0 b=fused kernel=fused_row (csr vector) c=654,38,31480,2400,0,182,2,0,1,0,0,16,0,1210,0,6296 k=fused_row/5x256;dot/2x256"},
      {"fused_row/dense",
       "n=97 h=ab771891be927243 L=2 ms=0x1.20d4050d7c6f3p-4 vL=1 vms=0x1.4832b1cf7530dp-8 sdc=1 b=fused kernel=fused_row (dense warp) c=450,13,33368,776,0,42,1,0,1,0,0,8,0,3131,0,8633 k=fused_row_dense/112x256;dot/1x256;fused_row_dense/112x256;dot/1x256"},
      {"fused_sddmm/csr",
       "n=300 h=f95ae159cb529a4a L=2 ms=0x1.54492fd3528fep-7 vL=1 vms=0x1.4914926301a38p-8 sdc=0 b=fused kernel=fused_sddmm (csr vector) c=654,38,31480,2400,0,350,2,0,1,0,0,16,0,1210,0,13186 k=fused_sddmm/5x256;dot/2x256"},
      {"fused_sddmm/dense",
       "n=97 h=708f0d4ecd3dade0 L=2 ms=0x1.501ce102be896p-7 vL=1 vms=0x1.4832b1cf7530dp-8 sdc=0 b=fused kernel=fused_sddmm (dense) c=450,13,33368,776,0,70,1,0,1,0,0,8,0,3131,0,27354 k=fused_sddmm_dense/112x256;dot/1x256"},
  };
  return g;
}

// Every GPU dispatch body under full ABFT verification with a seeded silent
// fault injector: pins which dispatches were corrupted, detected and
// recomputed, what verification cost, and the value that finally came back.
TEST(KernelGolden, VerifiedRegistryDispatchIsPinned) {
  RecorderScope rec;
  const Inputs in;
  const EwiseProgram prog = in.program();
  vgpu::FaultConfig cfg;
  cfg.seed = 2024;
  cfg.silent_fault_rate = 0.15;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);
  const RetryPolicy policy;

  std::vector<real> axpy_y = in.b;
  std::vector<real> scal_x = in.a;
  const auto vals_s = la::random_vector(static_cast<usize>(in.Xs.nnz()), 40);
  const auto vals_d = la::random_vector(in.Xd.data().size(), 41);
  const auto om_s = la::random_vector(300u * 200u, 42);
  const auto om_d = la::random_vector(in.Xd.data().size(), 43);
  const std::span<const real> ext_s[] = {in.ys_m};
  const std::span<const real> ext_d[] = {in.yd_m};
  const std::span<const real> chain_in[] = {in.a, in.b};

  using Attempt = std::function<KernelOutcome(Backend)>;
  struct Case {
    std::string name;
    Backend backend;
    Attempt attempt;
    std::span<real> inout;
  };
  const std::vector<Case> cases = {
      {"transposed_product/csr/fused", Backend::kFused,
       [&](Backend b) {
         return reg.transposed_product(b, in.Xs, in.ys_m, 0.75);
       }, {}},
      {"transposed_product/csr/cusparse", Backend::kCusparse,
       [&](Backend b) {
         return reg.transposed_product(b, in.Xs, in.ys_m, 0.75);
       }, {}},
      {"transposed_product/csr/bidmat", Backend::kBidmatGpu,
       [&](Backend b) {
         return reg.transposed_product(b, in.Xk, in.yk_m, 0.75);
       }, {}},
      {"transposed_product/dense/cusparse", Backend::kCusparse,
       [&](Backend b) {
         return reg.transposed_product(b, in.Xd, in.yd_m, 0.75);
       }, {}},
      {"product/csr", Backend::kFused,
       [&](Backend b) { return reg.product(b, in.Xs, in.ys_n); }, {}},
      {"product/dense", Backend::kFused,
       [&](Backend b) { return reg.product(b, in.Xd, in.yd_n); }, {}},
      {"pattern/csr/fused", Backend::kFused,
       [&](Backend b) {
         return reg.pattern(b, 0.5, in.Xs, in.ys_m, in.ys_n, 2.0, in.ys_n2);
       }, {}},
      {"pattern/csr/cusparse", Backend::kCusparse,
       [&](Backend b) {
         return reg.pattern(b, 0.5, in.Xs, in.ys_m, in.ys_n, 2.0, in.ys_n2);
       }, {}},
      {"pattern/csr/bidmat", Backend::kBidmatGpu,
       [&](Backend b) {
         return reg.pattern(b, 0.5, in.Xk, in.yk_m, in.yk_n, 2.0, in.yk_n2);
       }, {}},
      {"pattern/dense/fused", Backend::kFused,
       [&](Backend b) {
         return reg.pattern(b, 0.5, in.Xd, in.yd_m, in.yd_n, 2.0, in.yd_n2);
       }, {}},
      {"pattern/dense/cusparse", Backend::kCusparse,
       [&](Backend b) {
         return reg.pattern(b, 0.5, in.Xd, in.yd_m, in.yd_n, 2.0, in.yd_n2);
       }, {}},
      {"axpy", Backend::kFused,
       [&](Backend b) { return reg.axpy(b, 1.5, in.a, axpy_y); }, axpy_y},
      {"scal", Backend::kFused,
       [&](Backend b) { return reg.scal(b, -0.25, scal_x); }, scal_x},
      {"dot", Backend::kFused,
       [&](Backend b) { return reg.dot(b, in.a, in.b); }, {}},
      {"nrm2", Backend::kFused,
       [&](Backend b) { return reg.nrm2(b, in.a); }, {}},
      {"ewise_mul", Backend::kFused,
       [&](Backend b) { return reg.ewise_mul(b, in.a, in.b); }, {}},
      {"map", Backend::kFused,
       [&](Backend b) { return reg.map(b, in.a, sigmoid, "sigmoid"); }, {}},
      {"fused_ewise", Backend::kFused,
       [&](Backend b) { return reg.fused_ewise(b, prog, chain_in); }, {}},
      {"outer_map", Backend::kFused,
       [&](Backend b) {
         return reg.outer_map(b, in.yd_m, in.yd_n, sigmoid, "sigmoid");
       }, {}},
      {"sparse_mask/csr", Backend::kFused,
       [&](Backend b) { return reg.sparse_mask(b, in.Xs, om_s); }, {}},
      {"sparse_mask/dense", Backend::kFused,
       [&](Backend b) { return reg.sparse_mask(b, in.Xd, om_d); }, {}},
      {"masked_product/csr", Backend::kFused,
       [&](Backend b) { return reg.masked_product(b, in.Xs, vals_s, in.ys_n); },
       {}},
      {"masked_product/dense", Backend::kFused,
       [&](Backend b) { return reg.masked_product(b, in.Xd, vals_d, in.yd_n); },
       {}},
      {"fused_row/csr", Backend::kFused,
       [&](Backend b) { return reg.fused_row(b, in.Xs, in.ys_n, prog, ext_s); },
       {}},
      {"fused_row/dense", Backend::kFused,
       [&](Backend b) { return reg.fused_row(b, in.Xd, in.yd_n, prog, ext_d); },
       {}},
      {"fused_sddmm/csr", Backend::kFused,
       [&](Backend b) {
         return reg.fused_sddmm(b, in.Xs, in.ys_m, in.ys_n, in.ys_n2, sigmoid,
                                "sigmoid");
       }, {}},
      {"fused_sddmm/dense", Backend::kFused,
       [&](Backend b) {
         return reg.fused_sddmm(b, in.Xd, in.yd_m, in.yd_n, in.yd_n2, sigmoid,
                                "sigmoid");
       }, {}},
  };
  for (const auto& c : cases) {
    obs::recorder().clear();
    const KernelOutcome r =
        reg.execute_resilient(c.backend, policy, c.attempt, c.inout);
    expect_golden(registry_golden(), c.name, fingerprint(r));
  }
}

}  // namespace
}  // namespace fusedml::kernels
