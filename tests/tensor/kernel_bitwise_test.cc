// Bitwise agreement of the register-tiled GEMM and interaction kernels
// with scalar copies of the loops they replaced. Tolerances cannot see a
// changed summation order, so every comparison is a memcmp of the float
// bits. Inputs mix in +0, -0 and subnormals: the tiled kernels drop the
// scalar loops' skip of zero multipliers, which is exact only because a
// +0-started accumulator never turns -0.
//
// KernelBitwiseTest runs ops.h's entry points (the build the dispatcher
// picked); KernelBitwiseIsaTest runs each build of the kernels through
// the private tiles::KernelsFor, so the 4-lane build is checked on AVX2
// hosts too.

#include "tensor/ops.h"

#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/dense_tiles.h"
#include "util/thread_pool.h"

namespace fae {
namespace {

// -- Scalar references: the loops the tiled kernels replaced.

void RefAxpy(size_t n, float a, const float* x, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// kernels::Dot's association: four strided lanes, a scalar tail, then
/// ((s0 + s1) + (s2 + s3)) + tail.
float RefDot(size_t n, const float* x, const float* y) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i + 0] * y[i + 0];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += x[i] * y[i];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t kk = 0; kk < a.cols(); ++kk) {
      const float av = a(i, kk);
      if (av == 0.0f) continue;
      RefAxpy(b.cols(), av, b.row(kk), c.row(i));
    }
  }
  return c;
}

Tensor RefMatMulTransA(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  for (size_t kk = 0; kk < a.rows(); ++kk) {
    for (size_t i = 0; i < a.cols(); ++i) {
      const float av = a(kk, i);
      if (av == 0.0f) continue;
      RefAxpy(b.cols(), av, b.row(kk), c.row(i));
    }
  }
  return c;
}

Tensor RefMatMulTransB(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      c(i, j) = RefDot(a.cols(), a.row(i), b.row(j));
    }
  }
  return c;
}

/// The top MLP's input: columns [0, d) copy f[0], then the pairs.
Tensor RefInteraction(const std::vector<const Tensor*>& f) {
  const size_t d = f[0]->cols();
  Tensor out(f[0]->rows(), d + f.size() * (f.size() - 1) / 2);
  for (size_t r = 0; r < out.rows(); ++r) {
    std::memcpy(out.row(r), f[0]->row(r), d * sizeof(float));
    size_t col = d;
    for (size_t i = 0; i < f.size(); ++i) {
      for (size_t j = i + 1; j < f.size(); ++j) {
        out(r, col++) = RefDot(d, f[i]->row(r), f[j]->row(r));
      }
    }
  }
  return out;
}

/// From the top input's gradient [direct | pairs]: every feature's pair
/// sum, then grads[0] plus the direct columns.
std::vector<Tensor> RefInteractionBackward(
    const Tensor& grad_out, const std::vector<const Tensor*>& f) {
  const size_t d = f[0]->cols();
  std::vector<Tensor> grads(f.size(), Tensor(f[0]->rows(), d));
  for (size_t r = 0; r < grad_out.rows(); ++r) {
    size_t col = d;
    for (size_t i = 0; i < f.size(); ++i) {
      for (size_t j = i + 1; j < f.size(); ++j) {
        const float g = grad_out(r, col++);
        if (g == 0.0f) continue;
        RefAxpy(d, g, f[j]->row(r), grads[i].row(r));
        RefAxpy(d, g, f[i]->row(r), grads[j].row(r));
      }
    }
    for (size_t e = 0; e < d; ++e) grads[0](r, e) += grad_out(r, e);
  }
  return grads;
}

// -- Inputs and comparison.

/// N(0, 1) entries with about one in eight replaced by +0, -0 or a
/// subnormal of either sign.
Tensor SpecialRandn(size_t rows, size_t cols, Xoshiro256& rng) {
  Tensor t = Tensor::Randn(rows, cols, 1.0f, rng);
  const float tiny = std::numeric_limits<float>::denorm_min();
  for (size_t i = 0; i < t.numel(); ++i) {
    const float sub = tiny * static_cast<float>(1 + rng.NextBounded(1u << 20));
    switch (rng.NextBounded(16)) {
      case 0:
        t.data()[i] = 0.0f;
        break;
      case 1:
        t.data()[i] = -0.0f;
        break;
      case 2:
        t.data()[i] = sub;
        break;
      case 3:
        t.data()[i] = -sub;
        break;
      default:
        break;
    }
  }
  return t;
}

::testing::AssertionResult BitEqual(const Tensor& want, const Tensor& got) {
  if (!want.SameShape(got)) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << ", want "
           << want.rows() << "x" << want.cols();
  }
  // An empty tensor's data() may be null, which memcmp must not receive.
  if (want.numel() == 0 ||
      std::memcmp(want.data(), got.data(), want.numel() * sizeof(float)) ==
          0) {
    return ::testing::AssertionSuccess();
  }
  for (size_t i = 0; i < want.numel(); ++i) {
    if (std::memcmp(&want.data()[i], &got.data()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element (" << i / want.cols() << ", " << i % want.cols()
             << ") is " << got.data()[i] << ", want " << want.data()[i];
    }
  }
  return ::testing::AssertionFailure();
}

/// ops.h's entry points, in the shape of one build's kernel table.
const tiles::Kernels kPublicOps = {&MatMulInto, &MatMulTransAInto,
                                   &MatMulTransBInto,
                                   &PairwiseDotInteractionInto,
                                   &PairwiseDotInteractionBackwardInto};

/// The three GEMMs of a Linear layer in -> out at batch `batch`: forward
/// [batch, in] x [in, out], weight gradient [batch, in]^T x [batch, out],
/// input gradient [batch, out] x [in, out]^T.
void ExpectLayerBitExact(const tiles::Kernels& ops, size_t batch, size_t in,
                         size_t out, Xoshiro256& rng, ThreadPool* pool) {
  SCOPED_TRACE(::testing::Message() << "batch " << batch << " in " << in
                                    << " out " << out << " pool "
                                    << (pool != nullptr));
  const Tensor x = SpecialRandn(batch, in, rng);
  const Tensor w = SpecialRandn(in, out, rng);
  const Tensor g = SpecialRandn(batch, out, rng);
  Tensor got;
  ops.mat_mul(got, x, w, pool);
  EXPECT_TRUE(BitEqual(RefMatMul(x, w), got));
  ops.mat_mul_trans_a(got, x, g, pool);
  EXPECT_TRUE(BitEqual(RefMatMulTransA(x, g), got));
  ops.mat_mul_trans_b(got, g, w, pool);
  EXPECT_TRUE(BitEqual(RefMatMulTransB(g, w), got));
}

void ExpectInteractionBitExact(const tiles::Kernels& ops, size_t rows,
                               size_t f, size_t d, Xoshiro256& rng,
                               ThreadPool* pool) {
  SCOPED_TRACE(::testing::Message() << "rows " << rows << " f " << f << " d "
                                    << d << " pool " << (pool != nullptr));
  std::vector<Tensor> feats;
  for (size_t i = 0; i < f; ++i) feats.push_back(SpecialRandn(rows, d, rng));
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : feats) ptrs.push_back(&t);
  const Tensor grad_out = SpecialRandn(rows, d + f * (f - 1) / 2, rng);

  Tensor out;
  ops.interaction(out, ptrs, pool);
  EXPECT_TRUE(BitEqual(RefInteraction(ptrs), out));
  const std::vector<Tensor> want = RefInteractionBackward(grad_out, ptrs);
  std::vector<Tensor> got(f);
  ops.interaction_backward(got, grad_out, ptrs, pool);
  for (size_t i = 0; i < f; ++i) {
    EXPECT_TRUE(BitEqual(want[i], got[i])) << "feature " << i;
  }
}

// Every tile remainder. GEMM tiles are 4 rows x 8 columns at 4 lanes, 4 x
// 16 at 8 and 8 x 32 at 16, with 16-, 8-, 4- and 1-column tails and 4-row
// and single-row remainders; n up to 67 reaches every tail after two full
// 16-lane tiles. Dot tiles are 2 or 4 rows x 4 columns at 4 and 8 lanes
// and 4 or 8 rows x 4 columns at 16, and the input gradient's last `in` %
// 4 columns run as one buffered tile. A zero batch or input width gives
// the forward and weight-gradient GEMMs an empty inner dimension, whose
// product is all +0. The last layers give the input gradient a k of
// several 16-lane pack blocks (256), with and without a k % 4 tail, and
// more than one 64-row block of B.
void ExpectGemmsBitExactOnEveryTileRemainder(const tiles::Kernels& ops,
                                             ThreadPool* pool) {
  Xoshiro256 rng(13);
  for (size_t m = 0; m <= 19; ++m) {
    for (size_t k = 0; k <= 19; ++k) {
      for (size_t n = 1; n <= 67; ++n) {
        ExpectLayerBitExact(ops, m, k, n, rng, pool);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  ExpectLayerBitExact(ops, 21, 70, 600, rng, pool);
  ExpectLayerBitExact(ops, 13, 5, 603, rng, pool);
}

// The layers the benchmark's workloads train, at batch sizes that leave
// row remainders in every thread's chunk: Kaggle DLRM bottom 13-64-16 and
// top 367-64-1; Taobao TBSM bottom 3-16, the per-timestep 16-16 over
// batch x 21 history rows, and top 80-30-1. k = 367 and the weight
// gradients' k = batch span several k-blocks.
void ExpectGemmsBitExactOnWorkloadLayers(const tiles::Kernels& ops,
                                         ThreadPool* pool) {
  Xoshiro256 rng(14);
  const size_t batch = 203;
  for (auto [in, out] : {std::pair<size_t, size_t>{13, 64},
                         {64, 16},
                         {367, 64},
                         {64, 1},
                         {3, 16},
                         {80, 30},
                         {30, 1}}) {
    ExpectLayerBitExact(ops, batch, in, out, rng, pool);
  }
  ExpectLayerBitExact(ops, 67 * 21, 16, 16, rng, pool);
}

/// Vector lanes of a build: the samples of one interaction lane block.
size_t LanesOf(tiles::Isa isa) {
  switch (isa) {
    case tiles::Isa::kAvx512:
      return 16;
    case tiles::Isa::kAvx2:
      return 8;
    case tiles::Isa::kBaseline:
      break;
  }
  return 4;
}

// The interaction runs blocks of `lanes` sample rows, so each row count
// of the sweep is one of 1, lanes - 1, lanes, lanes + 1 and 2 * lanes + 3:
// a partial block alone, one full block, and one or two full blocks and a
// remainder. Feature counts 2..19 cover every size of the last feature
// and partner tiles; d 1..31 covers partial lane chunks of d and the dot
// tails. The cases after the sweep have enough work for the pool, whose
// chunk boundaries (about rows / 4 apart) then fall inside lane blocks. 70 features at d 515 exceed the 128 KB lane scratch at
// every width, so the forward transposes per tile in k-blocks (two of
// them at 16 lanes), and at 16 lanes the backward gathers its pair
// gradients.
void ExpectInteractionBitExactOnEveryRemainder(const tiles::Kernels& ops,
                                               size_t lanes,
                                               ThreadPool* pool) {
  Xoshiro256 rng(15);
  for (const size_t rows :
       {size_t{1}, lanes - 1, lanes, lanes + 1, 2 * lanes + 3}) {
    for (size_t f = 2; f <= 19; ++f) {
      for (size_t d = 1; d <= 31; ++d) {
        ExpectInteractionBitExact(ops, rows, f, d, rng, pool);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  ExpectInteractionBitExact(ops, 2, 70, 515, rng, pool);
  ExpectInteractionBitExact(ops, lanes + 1, 70, 515, rng, pool);
  // Kaggle DLRM: 26 tables plus the bottom MLP, embedding dim 16, and the
  // schemas' other dim, 64.
  ExpectInteractionBitExact(ops, 203, 27, 16, rng, pool);
  ExpectInteractionBitExact(ops, 2 * lanes + 3, 27, 16, rng, pool);
  ExpectInteractionBitExact(ops, 2 * lanes + 3, 27, 64, rng, pool);
}

/// nullptr for 1 thread, a pool of `threads` threads otherwise.
ThreadPool* PoolFor(size_t threads, std::unique_ptr<ThreadPool>& pool) {
  if (threads <= 1) return nullptr;
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
  return pool.get();
}

class KernelBitwiseTest : public ::testing::TestWithParam<size_t> {
 protected:
  /// nullptr for parameter 1, a pool of that many threads otherwise.
  ThreadPool* pool() { return PoolFor(GetParam(), pool_); }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

TEST_P(KernelBitwiseTest, GemmsMatchScalarLoopsOnEveryTileRemainder) {
  ExpectGemmsBitExactOnEveryTileRemainder(kPublicOps, pool());
}

TEST_P(KernelBitwiseTest, GemmsMatchScalarLoopsOnWorkloadLayers) {
  ExpectGemmsBitExactOnWorkloadLayers(kPublicOps, pool());
}

TEST_P(KernelBitwiseTest, InteractionMatchesScalarLoops) {
  ExpectInteractionBitExactOnEveryRemainder(
      kPublicOps, LanesOf(tiles::DispatchedIsa()), pool());
}

/// The branching loop ReluBackwardInPlace replaced.
void RefReluBackwardInPlace(Tensor& grad, const Tensor& x) {
  for (size_t i = 0; i < grad.numel(); ++i) {
    if (x.data()[i] <= 0.0f) grad.data()[i] = 0.0f;
  }
}

// The select must zero exactly where the branch did: x = +0 and -0 zero
// the gradient, NaN x keeps it, and the kept gradients (including -0, a
// subnormal, an infinity or a NaN) pass through untouched. The kernel
// takes no pool; both instantiations run the same loop.
TEST_P(KernelBitwiseTest, ReluBackwardMatchesBranchingLoop) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min() * 3.0f;
  const std::vector<float> specials = {0.0f, -0.0f, sub,  -sub, inf,
                                       -inf, nan,   -nan, 1.5f, -2.5f};
  Xoshiro256 rng(16);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{100},
                         size_t{1037}}) {
    Tensor x(1, n);
    Tensor g(1, n);
    // Every (x, g) pair of specials first, then random specials.
    for (size_t i = 0; i < n; ++i) {
      const size_t k = specials.size();
      x.data()[i] = specials[i < k * k ? i / k : rng.NextBounded(k)];
      g.data()[i] = specials[i < k * k ? i % k : rng.NextBounded(k)];
    }
    Tensor want = g;
    RefReluBackwardInPlace(want, x);
    ReluBackwardInPlace(g, x);
    EXPECT_TRUE(BitEqual(want, g)) << "n " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelBitwiseTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 1 ? std::string("Serial")
                                                  : std::string("Pool4");
                         });

/// One build of the kernels at one thread count.
struct IsaParam {
  tiles::Isa isa;
  size_t threads;
};

void PrintTo(const IsaParam& p, std::ostream* os) {
  *os << tiles::IsaName(p.isa) << ", " << p.threads << " thread(s)";
}

class KernelBitwiseIsaTest : public ::testing::TestWithParam<IsaParam> {
 protected:
  void SetUp() override {
    if (!tiles::IsaSupported(GetParam().isa)) {
      GTEST_SKIP() << tiles::IsaName(GetParam().isa)
                   << " is not supported on this CPU";
    }
  }

  const tiles::Kernels& ops() { return tiles::KernelsFor(GetParam().isa); }
  ThreadPool* pool() { return PoolFor(GetParam().threads, pool_); }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

TEST_P(KernelBitwiseIsaTest, GemmsMatchScalarLoopsOnEveryTileRemainder) {
  ExpectGemmsBitExactOnEveryTileRemainder(ops(), pool());
}

TEST_P(KernelBitwiseIsaTest, GemmsMatchScalarLoopsOnWorkloadLayers) {
  ExpectGemmsBitExactOnWorkloadLayers(ops(), pool());
}

TEST_P(KernelBitwiseIsaTest, InteractionMatchesScalarLoops) {
  ExpectInteractionBitExactOnEveryRemainder(ops(), LanesOf(GetParam().isa),
                                            pool());
}

INSTANTIATE_TEST_SUITE_P(
    Isa, KernelBitwiseIsaTest,
    ::testing::Values(IsaParam{tiles::Isa::kBaseline, 1},
                      IsaParam{tiles::Isa::kBaseline, 4},
                      IsaParam{tiles::Isa::kAvx2, 1},
                      IsaParam{tiles::Isa::kAvx2, 4},
                      IsaParam{tiles::Isa::kAvx512, 1},
                      IsaParam{tiles::Isa::kAvx512, 4}),
    [](const ::testing::TestParamInfo<IsaParam>& info) {
      // "avx512" -> "Avx512Serial".
      std::string name = tiles::IsaName(info.param.isa);
      name[0] = static_cast<char>(name[0] - 'a' + 'A');
      return name + (info.param.threads == 1 ? "Serial" : "Pool4");
    });

/// Whether this binary has the build for `isa` and the CPU can run it,
/// asked of the CPU directly rather than of IsaSupported.
bool CpuRuns(tiles::Isa isa) {
  switch (isa) {
    case tiles::Isa::kBaseline:
      return true;
    case tiles::Isa::kAvx2:
#if FAE_DENSE_TILES_AVX2
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case tiles::Isa::kAvx512:
#if FAE_DENSE_TILES_AVX512
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

// A build is supported exactly when it is compiled in and the CPU has its
// instructions, and the dispatcher runs the widest supported build, which
// ops.h names.
TEST(KernelDispatchTest, PicksTheWidestCompiledAndSupportedBuild) {
  tiles::Isa widest = tiles::Isa::kBaseline;
  for (tiles::Isa isa :
       {tiles::Isa::kBaseline, tiles::Isa::kAvx2, tiles::Isa::kAvx512}) {
    EXPECT_EQ(tiles::IsaSupported(isa), CpuRuns(isa)) << tiles::IsaName(isa);
    if (CpuRuns(isa)) widest = isa;
  }
  EXPECT_EQ(tiles::DispatchedIsa(), widest);
  EXPECT_STREQ(DenseKernelsName(), tiles::IsaName(widest));
}

// The dispatcher runs the AVX2 build exactly when the CPU has AVX2 and
// this binary has that build, but no wider one the CPU can run.
TEST(KernelDispatchTest, PicksAvx2ExactlyWhenTheCpuHasIt) {
  EXPECT_TRUE(tiles::IsaSupported(tiles::Isa::kBaseline));
  const bool avx2 = CpuRuns(tiles::Isa::kAvx2);
  EXPECT_EQ(tiles::IsaSupported(tiles::Isa::kAvx2), avx2);
  EXPECT_EQ(tiles::DispatchedIsa() == tiles::Isa::kAvx2,
            avx2 && !CpuRuns(tiles::Isa::kAvx512));
}

}  // namespace
}  // namespace fae
