// Bitwise agreement of the register-tiled GEMM and interaction kernels
// with scalar copies of the loops they replaced. Tolerances cannot see a
// changed summation order, so every comparison is a memcmp of the float
// bits. Inputs mix in +0, -0 and subnormals: the tiled kernels drop the
// scalar loops' skip of zero multipliers, which is exact only because a
// +0-started accumulator never turns -0.

#include "tensor/ops.h"

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

Tensor RefInteraction(const std::vector<const Tensor*>& f) {
  Tensor out(f[0]->rows(), f.size() * (f.size() - 1) / 2);
  for (size_t r = 0; r < out.rows(); ++r) {
    size_t col = 0;
    for (size_t i = 0; i < f.size(); ++i) {
      for (size_t j = i + 1; j < f.size(); ++j) {
        out(r, col++) = RefDot(f[0]->cols(), f[i]->row(r), f[j]->row(r));
      }
    }
  }
  return out;
}

std::vector<Tensor> RefInteractionBackward(
    const Tensor& grad_out, const std::vector<const Tensor*>& f) {
  const size_t d = f[0]->cols();
  std::vector<Tensor> grads(f.size(), Tensor(f[0]->rows(), d));
  for (size_t r = 0; r < grad_out.rows(); ++r) {
    size_t col = 0;
    for (size_t i = 0; i < f.size(); ++i) {
      for (size_t j = i + 1; j < f.size(); ++j) {
        const float g = grad_out(r, col++);
        if (g == 0.0f) continue;
        RefAxpy(d, g, f[j]->row(r), grads[i].row(r));
        RefAxpy(d, g, f[i]->row(r), grads[j].row(r));
      }
    }
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

/// The three GEMMs of a Linear layer in -> out at batch `batch`: forward
/// [batch, in] x [in, out], weight gradient [batch, in]^T x [batch, out],
/// input gradient [batch, out] x [in, out]^T.
void ExpectLayerBitExact(size_t batch, size_t in, size_t out,
                         Xoshiro256& rng, ThreadPool* pool) {
  SCOPED_TRACE(::testing::Message() << "batch " << batch << " in " << in
                                    << " out " << out << " pool "
                                    << (pool != nullptr));
  const Tensor x = SpecialRandn(batch, in, rng);
  const Tensor w = SpecialRandn(in, out, rng);
  const Tensor g = SpecialRandn(batch, out, rng);
  EXPECT_TRUE(BitEqual(RefMatMul(x, w), MatMul(x, w, pool)));
  EXPECT_TRUE(BitEqual(RefMatMulTransA(x, g), MatMulTransA(x, g, pool)));
  EXPECT_TRUE(BitEqual(RefMatMulTransB(g, w), MatMulTransB(g, w, pool)));
}

void ExpectInteractionBitExact(size_t rows, size_t f, size_t d,
                               Xoshiro256& rng, ThreadPool* pool) {
  SCOPED_TRACE(::testing::Message() << "rows " << rows << " f " << f << " d "
                                    << d << " pool " << (pool != nullptr));
  std::vector<Tensor> feats;
  for (size_t i = 0; i < f; ++i) feats.push_back(SpecialRandn(rows, d, rng));
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : feats) ptrs.push_back(&t);
  const Tensor grad_out = SpecialRandn(rows, f * (f - 1) / 2, rng);

  EXPECT_TRUE(BitEqual(RefInteraction(ptrs),
                       PairwiseDotInteraction(ptrs, pool)));
  const std::vector<Tensor> want = RefInteractionBackward(grad_out, ptrs);
  const std::vector<Tensor> got =
      PairwiseDotInteractionBackward(grad_out, ptrs, pool);
  ASSERT_EQ(got.size(), f);
  for (size_t i = 0; i < f; ++i) {
    EXPECT_TRUE(BitEqual(want[i], got[i])) << "feature " << i;
  }
}

class KernelBitwiseTest : public ::testing::TestWithParam<size_t> {
 protected:
  /// nullptr for parameter 1, a pool of that many threads otherwise.
  ThreadPool* pool() {
    if (GetParam() <= 1) return nullptr;
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(GetParam());
    return pool_.get();
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

// Every tile remainder: the GEMM tiles are 4 rows x 8 columns with a
// 4-column and a 1-column tail, the dot tiles 2 rows x 4 columns. A zero
// batch or input width gives the forward and weight-gradient GEMMs an
// empty inner dimension, whose product is all +0.
TEST_P(KernelBitwiseTest, GemmsMatchScalarLoopsOnEveryTileRemainder) {
  Xoshiro256 rng(13);
  for (size_t m = 0; m <= 19; ++m) {
    for (size_t k = 0; k <= 19; ++k) {
      for (size_t n = 1; n <= 19; ++n) {
        ExpectLayerBitExact(m, k, n, rng, pool());
        if (HasFailure()) return;
      }
    }
  }
}

// The layers the benchmark's workloads train, at batch sizes that leave
// row remainders in every thread's chunk: Kaggle DLRM bottom 13-64-16 and
// top 367-64-1; Taobao TBSM bottom 3-16, the per-timestep 16-16 over
// batch x 21 history rows, and top 80-30-1. k = 367 and the weight
// gradients' k = batch span several k-blocks.
TEST_P(KernelBitwiseTest, GemmsMatchScalarLoopsOnWorkloadLayers) {
  Xoshiro256 rng(14);
  const size_t batch = 203;
  for (auto [in, out] : {std::pair<size_t, size_t>{13, 64},
                         {64, 16},
                         {367, 64},
                         {64, 1},
                         {3, 16},
                         {80, 30},
                         {30, 1}}) {
    ExpectLayerBitExact(batch, in, out, rng, pool());
  }
  ExpectLayerBitExact(67 * 21, 16, 16, rng, pool());
}

TEST_P(KernelBitwiseTest, InteractionMatchesScalarLoops) {
  Xoshiro256 rng(15);
  for (size_t f = 2; f <= 9; ++f) {
    for (size_t d = 1; d <= 19; ++d) {
      ExpectInteractionBitExact(3, f, d, rng, pool());
    }
  }
  // Kaggle DLRM: 26 tables plus the bottom MLP, embedding dim 16.
  ExpectInteractionBitExact(203, 27, 16, rng, pool());
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

}  // namespace
}  // namespace fae
