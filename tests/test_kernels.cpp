// Correctness tests for every device kernel against the CPU references,
// including parameterized sweeps across matrix shapes and sparsities, plus
// counter sanity checks (the quantities the figures are built from).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "kernels/baselines.h"
#include "kernels/blas1.h"
#include "kernels/cpu_backend.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_sparse.h"
#include "kernels/gemv.h"
#include "kernels/sparse_warp_accounting.h"
#include "kernels/spmv.h"
#include "kernels/spmv_transpose.h"
#include "la/convert.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "test_util.h"

namespace fusedml::kernels {
namespace {

using la::random_vector;
using la::uniform_sparse;
using test::expect_vectors_near;

// --- BLAS-1 -----------------------------------------------------------------

class Blas1Test : public ::testing::Test {
 protected:
  vgpu::Device dev;
};

TEST_F(Blas1Test, Axpy) {
  auto x = random_vector(1000, 1);
  auto y = random_vector(1000, 2);
  auto expect = y;
  la::axpy(2.5, x, expect);
  const auto got = dev_axpy(dev, 2.5, x, y);
  expect_vectors_near(expect, got.value);
  EXPECT_EQ(got.launches, 1u);
  EXPECT_GT(got.counters.gld_bytes, 2 * 1000 * sizeof(real) - 1);
}

TEST_F(Blas1Test, Scal) {
  auto x = random_vector(333, 3);
  auto expect = x;
  la::scal(-1.5, expect);
  expect_vectors_near(expect, dev_scal(dev, -1.5, x).value);
}

TEST_F(Blas1Test, DotAndNrm2) {
  const auto x = random_vector(4097, 4);
  const auto y = random_vector(4097, 5);
  EXPECT_NEAR(dev_dot(dev, x, y).value[0], la::dot(x, y), 1e-9);
  EXPECT_NEAR(dev_nrm2(dev, x).value[0], la::nrm2(x), 1e-9);
}

TEST_F(Blas1Test, EwiseMulAndScaleInto) {
  const auto x = random_vector(100, 6);
  const auto y = random_vector(100, 7);
  std::vector<real> expect(100);
  la::ewise_mul(x, y, expect);
  expect_vectors_near(expect, dev_ewise_mul(dev, x, y).value);

  auto scaled = dev_scale_into(dev, 3.0, x);
  for (usize i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(scaled.value[i], 3.0 * x[i]);
  }
}

TEST_F(Blas1Test, EmptyVectorsAreFine) {
  std::vector<real> empty;
  EXPECT_EQ(dev_nrm2(dev, empty).value[0], 0.0);
}

// --- Sparse SpMV sweep --------------------------------------------------------

struct SparseCase {
  index_t m, n;
  double sparsity;
};

class SpmvSweep : public ::testing::TestWithParam<SparseCase> {
 protected:
  vgpu::Device dev;
};

TEST_P(SpmvSweep, CsrVectorMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 101);
  const auto y = random_vector(static_cast<usize>(n), 9);
  expect_vectors_near(la::reference::spmv(X, y),
                      spmv_csr_vector(dev, X, y).value);
}

TEST_P(SpmvSweep, CsrScalarMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 102);
  const auto y = random_vector(static_cast<usize>(n), 10);
  expect_vectors_near(la::reference::spmv(X, y),
                      spmv_csr_scalar(dev, X, y).value);
}

TEST_P(SpmvSweep, AtomicScatterTransposeMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 103);
  const auto y = random_vector(static_cast<usize>(m), 11);
  expect_vectors_near(la::reference::spmv_transposed(X, y),
                      spmv_t_atomic_scatter(dev, X, y).value);
}

TEST_P(SpmvSweep, ExplicitTransposeMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 104);
  const auto y = random_vector(static_cast<usize>(m), 12);
  const auto split = spmv_t_explicit_transpose(dev, X, y);
  expect_vectors_near(la::reference::spmv_transposed(X, y),
                      split.multiply.value);
  EXPECT_GT(split.transpose.modeled_ms, 0.0);
  // Transpose costs several kernels.
  EXPECT_GE(split.transpose.launches, 3u);
}

TEST_P(SpmvSweep, FusedSpmvTMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 105);
  const auto p = random_vector(static_cast<usize>(m), 13);
  expect_vectors_near(la::reference::spmv_transposed(X, p),
                      fused_spmv_t(dev, X, p).value);
}

TEST_P(SpmvSweep, FusedSpmvTWithAlpha) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 106);
  const auto p = random_vector(static_cast<usize>(m), 14);
  auto expect = la::reference::spmv_transposed(X, p);
  la::scal(2.0, expect);
  expect_vectors_near(expect, fused_spmv_t(dev, X, p, 2.0).value);
}

TEST_P(SpmvSweep, FusedPatternMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 107);
  const auto y = random_vector(static_cast<usize>(n), 15);
  const auto v = random_vector(static_cast<usize>(m), 16);
  const auto z = random_vector(static_cast<usize>(n), 17);
  const real alpha = 1.25, beta = -0.75;
  const auto got = fused_pattern_sparse(dev, alpha, X, v, y, beta, z);
  expect_vectors_near(la::reference::pattern(alpha, X, v, y, beta, z),
                      got.value);
  EXPECT_EQ(got.launches, 1u) << "the whole pattern must be ONE kernel";
}

TEST_P(SpmvSweep, FusedPatternGlobalAggregationMatches) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 108);
  const auto y = random_vector(static_cast<usize>(n), 18);
  FusedSparseOptions opts;
  opts.aggregation = tuner::Aggregation::kGlobal;
  expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}),
                      fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, opts).value);
}

TEST_P(SpmvSweep, BaselinePipelinesMatchReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 109);
  const auto y = random_vector(static_cast<usize>(n), 19);
  const auto v = random_vector(static_cast<usize>(m), 20);
  const auto z = random_vector(static_cast<usize>(n), 21);
  const auto expect = la::reference::pattern(0.5, X, v, y, 2.0, z);
  for (auto strategy : {SparseTransposeStrategy::kExplicitTranspose,
                        SparseTransposeStrategy::kAtomicScatter}) {
    const auto got =
        baseline_pattern_sparse(dev, 0.5, X, v, y, 2.0, z, strategy);
    expect_vectors_near(expect, got.value);
    EXPECT_GE(got.launches, 4u) << "baseline is operator-at-a-time";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmvSweep,
    ::testing::Values(SparseCase{64, 32, 0.2},      // tiny
                      SparseCase{500, 200, 0.01},   // short rows (VS=2)
                      SparseCase{300, 1000, 0.05},  // wide, VS=32
                      SparseCase{1000, 100, 0.1},   // tall
                      SparseCase{128, 7000, 0.01},  // n beyond smem limit
                      SparseCase{77, 33, 0.0},      // empty matrix
                      SparseCase{1, 50, 0.5},       // single row
                      SparseCase{50, 1, 0.5}));     // single column

// --- Dense kernels --------------------------------------------------------------

struct DenseCase {
  index_t m, n;
};

class DenseSweep : public ::testing::TestWithParam<DenseCase> {
 protected:
  vgpu::Device dev;
};

TEST_P(DenseSweep, GemvMatchesReference) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 201);
  const auto y = random_vector(static_cast<usize>(n), 22);
  expect_vectors_near(la::reference::gemv(X, y), gemv_n(dev, X, y).value);
}

TEST_P(DenseSweep, GemvTMatchesReference) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 202);
  const auto p = random_vector(static_cast<usize>(m), 23);
  for (int ways : {0, kCublasConflictWays}) {
    GemvOptions opts;
    opts.smem_conflict_ways = ways;
    expect_vectors_near(la::reference::gemv_transposed(X, p),
                        gemv_t(dev, X, p, opts).value);
  }
}

TEST_P(DenseSweep, FusedDenseMatchesReference) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 203);
  const auto y = random_vector(static_cast<usize>(n), 24);
  const auto v = random_vector(static_cast<usize>(m), 25);
  const auto z = random_vector(static_cast<usize>(n), 26);
  const real alpha = -1.5, beta = 0.25;
  const auto got = fused_pattern_dense(dev, alpha, X, v, y, beta, z);
  expect_vectors_near(la::reference::pattern(alpha, X, v, y, beta, z),
                      got.value);
  EXPECT_EQ(got.launches, 1u);
}

TEST_P(DenseSweep, FusedDenseNoCodegenMatchesAndSpills) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 204);
  const auto y = random_vector(static_cast<usize>(n), 27);
  FusedDenseOptions opts;
  opts.use_codegen = false;
  const auto got = fused_pattern_dense(dev, 1, X, {}, y, 0, {}, opts);
  expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}), got.value);
  EXPECT_GT(got.counters.local_spill_bytes, 0u)
      << "runtime-indexed registers must charge local-memory traffic";
}

TEST_P(DenseSweep, BaselineDensePipelinesMatch) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 205);
  const auto y = random_vector(static_cast<usize>(n), 28);
  const auto expect = la::reference::pattern(1, X, {}, y, 0, {});
  for (auto flavor : {DenseFlavor::kCublas, DenseFlavor::kBidmat}) {
    expect_vectors_near(expect, baseline_xtxy_dense(dev, X, y, flavor).value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseSweep,
    ::testing::Values(DenseCase{100, 28},    // HIGGS-like (n <= 32 path)
                      DenseCase{64, 32},     // exactly warp-sized rows
                      DenseCase{200, 200},   // n not a multiple of VS
                      DenseCase{50, 1000},   // wide
                      DenseCase{1000, 17},   // odd tiny n
                      DenseCase{1, 64}));    // single row

// --- Counter-level expectations (what the figures measure) --------------------

TEST(Counters, FusedLoadsLessThanExplicitTranspose) {
  vgpu::Device dev;
  // Figure-2 regime: enough non-zeros that per-row floors (row_off, p) do
  // not dominate the traffic.
  const auto X = uniform_sparse(20000, 400, 0.05, 301);
  const auto y = random_vector(20000, 30);
  const auto fused = fused_spmv_t(dev, X, y);
  const auto baseline = spmv_t_explicit_transpose(dev, X, y).combined();
  // Fig. 2-bottom: cuSPARSE performs ~3.5x more load transactions.
  EXPECT_GT(static_cast<double>(baseline.counters.total_load_transactions()),
            1.5 * static_cast<double>(fused.counters.total_load_transactions()));
  // And far more store traffic (scattered CSC writes).
  EXPECT_GT(baseline.counters.gst_transactions,
            4 * fused.counters.gst_transactions);
}

TEST(Counters, FusedPatternLoadsXRoughlyTwiceWithSecondPassCached) {
  vgpu::Device dev;
  const auto X = uniform_sparse(3000, 500, 0.02, 302);
  const auto y = random_vector(500, 31);
  const auto r = fused_pattern_sparse(dev, 1, X, {}, y, 0, {});
  // Second pass hits L2: cached transactions should be close to the cold
  // ones (same row walked twice).
  EXPECT_GT(r.counters.l2_hit_transactions, 0u);
  const double ratio = static_cast<double>(r.counters.l2_hit_transactions) /
                       static_cast<double>(r.counters.gld_transactions);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 1.2);
}

TEST(Counters, DenseFusedLoadsXOnce) {
  vgpu::Device dev;
  const auto X = la::dense_random(2000, 256, 303);
  const auto y = random_vector(256, 32);
  const auto fused = fused_pattern_dense(dev, 1, X, {}, y, 0, {});
  const auto baseline = baseline_xtxy_dense(dev, X, y, DenseFlavor::kBidmat);
  // Baseline streams X twice; fused once (§4.2: "most of the gain ... comes
  // from loading X only once").
  const double x_bytes = static_cast<double>(X.bytes());
  EXPECT_NEAR(static_cast<double>(fused.counters.gld_bytes), x_bytes,
              0.25 * x_bytes);
  EXPECT_GT(static_cast<double>(baseline.counters.gld_bytes),
            1.7 * x_bytes);
}

TEST(Counters, TextureOptionRoutesYLoads) {
  vgpu::Device dev;
  const auto X = uniform_sparse(500, 100, 0.1, 304);
  const auto y = random_vector(100, 33);
  FusedSparseOptions tex, no_tex;
  no_tex.texture_y = false;
  const auto with_tex = fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, tex);
  const auto without = fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, no_tex);
  EXPECT_GT(with_tex.counters.tex_transactions, 0u);
  EXPECT_GT(without.counters.gld_transactions,
            with_tex.counters.gld_transactions);
}

// --- CPU backend ----------------------------------------------------------------

// --- Warp-traffic table -----------------------------------------------------

// Ragged rows (empty rows, one row longer than 32 * 32, a ragged last warp
// at every VS), the shapes where a per-group table could diverge from the
// per-warp step sweep it is built from.
la::CsrMatrix ragged() { return test::ragged_csr(1037, 2000, 10, 71); }

/// X's contents through the validating constructor: an equal matrix with a
/// structure memo of its own.
la::CsrMatrix rebuilt(const la::CsrMatrix& X) {
  return la::CsrMatrix(X.rows(), X.cols(),
                       {X.row_off().begin(), X.row_off().end()},
                       {X.col_idx().begin(), X.col_idx().end()},
                       {X.values().begin(), X.values().end()});
}

TEST(WarpTraffic, ChargesExactlyWhatThePerWarpSweepCounts) {
  const la::CsrMatrix X = ragged();
  for (int vs = 1; vs <= 32; vs *= 2) {
    const auto table = detail::warp_traffic(X, vs);
    const int rpw = table->rows_per_warp();
    ASSERT_EQ(rpw, 32 / vs);
    ASSERT_EQ(table->groups().size(),
              static_cast<usize>((X.rows() + rpw - 1) / rpw));
    vgpu::MemCounters from_table;
    vgpu::MemCounters from_sweep;
    vgpu::MemTracker t(from_table);
    vgpu::MemTracker s(from_sweep);
    for (long long first = 0; first < X.rows(); first += rpw) {
      const auto here =
          static_cast<int>(std::min<long long>(rpw, X.rows() - first));
      const auto v = detail::warp_rows_pass(X, first, here, vs, sizeof(real));
      const auto c =
          detail::warp_rows_pass(X, first, here, vs, sizeof(index_t));
      const auto g = detail::warp_rows_y_gather(X, first, here, vs);
      const auto& group = table->groups()[static_cast<usize>(first / rpw)];
      ASSERT_EQ(group.values, v.transactions) << "vs=" << vs << " row " << first;
      ASSERT_EQ(group.cols, c.transactions) << "vs=" << vs << " row " << first;
      ASSERT_EQ(group.gather, g.transactions) << "vs=" << vs << " row " << first;
      for (const auto path : {vgpu::MemPath::kDram, vgpu::MemPath::kL2}) {
        table->charge_pass(t, X, first, here, path);
        s.load_precomputed(v.transactions, v.bytes, path);
        s.load_precomputed(c.transactions, c.bytes, path);
      }
      table->charge_gather(t, X, first, here, vgpu::MemPath::kDram);
      s.load_precomputed(g.transactions, g.bytes, vgpu::MemPath::kDram);
    }
    EXPECT_EQ(from_table, from_sweep) << "vs=" << vs;
  }
}

TEST(WarpTraffic, CopiesShareOneTableAndOtherStructuresNever) {
  const la::CsrMatrix X = ragged();
  const auto table = detail::warp_traffic(X, 4);
  EXPECT_EQ(detail::warp_traffic(X, 4), table) << "built once per VS";
  EXPECT_NE(detail::warp_traffic(X, 8), table);
  const la::CsrMatrix copy = X;
  EXPECT_EQ(detail::warp_traffic(copy, 4), table);
  const la::CsrMatrix moved = la::CsrMatrix(copy);
  EXPECT_EQ(detail::warp_traffic(moved, 4), table);

  // A separately built twin (equal contents) and a structurally different
  // matrix each get their own table.
  const la::CsrMatrix twin = rebuilt(X);
  EXPECT_EQ(twin, X);
  EXPECT_NE(detail::warp_traffic(twin, 4), table);
  const la::CsrMatrix other = test::ragged_csr(1037, 2000, 10, 72);
  EXPECT_NE(detail::warp_traffic(other, 4), table);

  // The table lives exactly as long as the last matrix sharing it.
  std::weak_ptr<const detail::WarpTraffic> weak;
  {
    const la::CsrMatrix temp = test::ragged_csr(100, 300, 5, 73);
    weak = detail::warp_traffic(temp, 2);
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());

  EXPECT_THROW(detail::warp_traffic(X, 3), Error);
  EXPECT_THROW(detail::warp_traffic(X, 64), Error);
}

TEST(WarpTraffic, ValueEditsKeepCountersExact) {
  la::CsrMatrix X = ragged();
  const auto y = random_vector(2000, 74);
  const auto v = random_vector(1037, 75);
  vgpu::Device dev;
  const auto before = fused_pattern_sparse(dev, 0.5, X, v, y, 0.0, {});
  for (real& x : X.values_mut()) x = -2 * x + 1;
  const auto after = fused_pattern_sparse(dev, 0.5, X, v, y, 0.0, {});
  // A fresh matrix with the edited values builds its own table.
  const la::CsrMatrix fresh = rebuilt(X);
  const auto expect = fused_pattern_sparse(dev, 0.5, fresh, v, y, 0.0, {});
  EXPECT_EQ(after.counters, before.counters);
  EXPECT_EQ(after.counters, expect.counters);
  EXPECT_EQ(after.value, expect.value);
  expect_vectors_near(la::reference::pattern(0.5, X, v, y, 0.0, {}),
                      after.value);
}

TEST(WarpTraffic, ConcurrentFirstLaunchesChargeExactly) {
  // Two threads launch on one fresh X at once, each on its own device that
  // runs blocks on 4 host threads: both race to build X's table.
  const la::CsrMatrix X = ragged();
  const auto y = random_vector(2000, 76);
  std::vector<OpResult> got(2);
  std::vector<std::thread> threads;
  for (usize t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      vgpu::Device dev(vgpu::gtx_titan(), {}, 4);
      got[t] = fused_pattern_sparse(dev, 1.0, X, {}, y, 0.0, {});
    });
  }
  for (auto& th : threads) th.join();
  const la::CsrMatrix twin = rebuilt(X);
  vgpu::Device seq;
  const auto expect = fused_pattern_sparse(seq, 1.0, twin, {}, y, 0.0, {});
  for (const auto& r : got) {
    EXPECT_EQ(r.counters, expect.counters);
    expect_vectors_near(expect.value, r.value);
  }
}

TEST(FusedSparse, RejectsBlockSizesOffTheWarp) {
  // A block that is not a whole number of warps would make two blocks
  // sweep the same rows.
  const auto X = uniform_sparse(2000, 300, 0.05, 77);
  const auto y = random_vector(300, 78);
  vgpu::Device dev;
  FusedSparseOptions o;
  o.vector_size = 16;
  for (const int bs : {48, 80}) {
    o.block_size = bs;
    EXPECT_THROW(fused_pattern_sparse(dev, 1.0, X, {}, y, 0.0, {}, o), Error)
        << "block size " << bs;
    EXPECT_THROW(fused_spmv_t(dev, X, random_vector(2000, 79), 1.0, o), Error)
        << "block size " << bs;
  }
  o.block_size = 256;
  expect_vectors_near(la::reference::pattern(1.0, X, {}, y, 0.0, {}),
                      fused_pattern_sparse(dev, 1.0, X, {}, y, 0.0, {}, o).value);
}

TEST(CpuBackend, MatchesReferencesAndTimes) {
  CpuBackend cpu;
  const auto X = uniform_sparse(300, 150, 0.05, 401);
  const auto y = random_vector(150, 40);
  const auto v = random_vector(300, 41);
  const auto z = random_vector(150, 42);

  expect_vectors_near(la::reference::spmv(X, y), cpu.spmv(X, y).value);
  const auto pat = cpu.pattern(2.0, X, v, y, 0.5, z);
  expect_vectors_near(la::reference::pattern(2.0, X, v, y, 0.5, z), pat.value);
  EXPECT_GT(pat.modeled_ms, 0.0);
  EXPECT_GE(pat.wall_ms, 0.0);
}

TEST(CpuBackend, DenseAndBlas1) {
  CpuBackend cpu;
  const auto X = la::dense_random(100, 60, 402);
  const auto y = random_vector(60, 43);
  expect_vectors_near(la::reference::gemv(X, y), cpu.gemv(X, y).value);

  auto a = random_vector(500, 44);
  auto b = random_vector(500, 45);
  EXPECT_NEAR(cpu.dot(a, b).value[0], la::dot(a, b), 1e-9);
  EXPECT_NEAR(cpu.nrm2(a).value[0], la::nrm2(a), 1e-9);
}

TEST(CpuBackend, ModeledTimeScalesWithSize) {
  CpuBackend cpu;
  const auto small = uniform_sparse(200, 100, 0.05, 403);
  const auto large = uniform_sparse(4000, 100, 0.05, 404);
  const auto y = random_vector(100, 46);
  EXPECT_LT(cpu.spmv(small, y).modeled_ms, cpu.spmv(large, y).modeled_ms);
}

}  // namespace
}  // namespace fusedml::kernels
