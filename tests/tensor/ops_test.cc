#include "tensor/ops.h"

#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

namespace fae {
namespace {

/// MatMulInto into a fresh tensor, for tests that compare products.
Tensor Product(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulInto(c, a, b);
  return c;
}

TEST(OpsTest, MatMulSmallKnown) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = Product(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(OpsTest, MatMulIdentity) {
  Xoshiro256 rng(1);
  Tensor a = Tensor::Randn(4, 4, 1.0f, rng);
  Tensor eye(4, 4);
  for (int i = 0; i < 4; ++i) eye(i, i) = 1.0f;
  EXPECT_LT(MaxAbsDiff(Product(a, eye), a), 1e-6f);
  EXPECT_LT(MaxAbsDiff(Product(eye, a), a), 1e-6f);
}

TEST(OpsTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Xoshiro256 rng(2);
  Tensor a = Tensor::Randn(5, 3, 1.0f, rng);
  Tensor b = Tensor::Randn(5, 4, 1.0f, rng);
  // a^T * b via MatMulTransAInto.
  Tensor at(3, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) at(j, i) = a(i, j);
  }
  Tensor ta;
  MatMulTransAInto(ta, a, b);
  EXPECT_LT(MaxAbsDiff(ta, Product(at, b)), 1e-5f);

  Tensor c = Tensor::Randn(4, 3, 1.0f, rng);
  Tensor d = Tensor::Randn(6, 3, 1.0f, rng);
  Tensor dt(3, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 3; ++j) dt(j, i) = d(i, j);
  }
  Tensor tb;
  MatMulTransBInto(tb, c, d);
  EXPECT_LT(MaxAbsDiff(tb, Product(c, dt)), 1e-5f);
}

TEST(OpsTest, AddBiasRowwise) {
  Tensor x(2, 3, {0, 0, 0, 1, 1, 1});
  Tensor bias(1, 3, {10, 20, 30});
  AddBiasRowwise(x, bias);
  EXPECT_FLOAT_EQ(x(0, 2), 30.0f);
  EXPECT_FLOAT_EQ(x(1, 0), 11.0f);
}

TEST(OpsTest, ColumnSums) {
  Tensor x(3, 2, {1, 10, 2, 20, 3, 30});
  Tensor s;
  ColumnSumsInto(s, x);
  EXPECT_FLOAT_EQ(s(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(s(0, 1), 60.0f);
}

TEST(OpsTest, ReluForwardAndBackward) {
  Tensor x(1, 4, {-2, -0.5, 0.5, 2});
  Tensor y;
  ReluForwardInto(y, x);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 0.5f);
  Tensor dx(1, 4, {1, 1, 1, 1});
  ReluBackwardInPlace(dx, x);
  EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(dx(0, 3), 1.0f);
}

TEST(OpsTest, ConcatAndSplitRoundTrip) {
  Xoshiro256 rng(3);
  Tensor a = Tensor::Randn(3, 2, 1.0f, rng);
  Tensor b = Tensor::Randn(3, 5, 1.0f, rng);
  Tensor c = Tensor::Randn(3, 1, 1.0f, rng);
  Tensor cat;
  ConcatColsInto(cat, {&a, &b, &c});
  EXPECT_EQ(cat.cols(), 8u);
  std::vector<Tensor> parts(3);
  SplitColsInto({&parts[0], &parts[1], &parts[2]}, cat, {2, 5, 1});
  EXPECT_LT(MaxAbsDiff(parts[0], a), 1e-7f);
  EXPECT_LT(MaxAbsDiff(parts[1], b), 1e-7f);
  EXPECT_LT(MaxAbsDiff(parts[2], c), 1e-7f);
}

TEST(OpsTest, PairwiseDotKnownValues) {
  // Two features of dim 2, batch 1: [f0 | dot(f0, f1)].
  Tensor f0(1, 2, {1, 2});
  Tensor f1(1, 2, {3, 4});
  Tensor out;
  PairwiseDotInteractionInto(out, {&f0, &f1});
  EXPECT_EQ(out.cols(), 3u);
  EXPECT_FLOAT_EQ(out(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(out(0, 2), 11.0f);
}

TEST(OpsTest, PairwiseDotCountsPairs) {
  Xoshiro256 rng(5);
  std::vector<Tensor> feats;
  std::vector<const Tensor*> ptrs;
  for (int i = 0; i < 5; ++i) feats.push_back(Tensor::Randn(3, 4, 1.0f, rng));
  for (auto& f : feats) ptrs.push_back(&f);
  Tensor out;
  PairwiseDotInteractionInto(out, ptrs);
  EXPECT_EQ(out.cols(), 4u + 10u);  // d + C(5,2)
  EXPECT_EQ(out.rows(), 3u);
}

TEST(OpsTest, PairwiseDotBackwardMatchesNumericalGradient) {
  Xoshiro256 rng(6);
  std::vector<Tensor> feats;
  for (int i = 0; i < 3; ++i) feats.push_back(Tensor::Randn(2, 4, 1.0f, rng));
  std::vector<const Tensor*> ptrs;
  for (auto& f : feats) ptrs.push_back(&f);
  Tensor grad_out = Tensor::Randn(2, 4 + 3, 1.0f, rng);  // [direct | pairs]

  auto loss = [&]() {
    Tensor out;
    PairwiseDotInteractionInto(out, ptrs);
    double l = 0;
    for (size_t i = 0; i < out.numel(); ++i) {
      l += out.data()[i] * grad_out.data()[i];
    }
    return l;
  };

  std::vector<Tensor> analytic(feats.size());
  PairwiseDotInteractionBackwardInto(analytic, grad_out, ptrs);
  const float eps = 1e-3f;
  for (size_t f = 0; f < feats.size(); ++f) {
    for (size_t i = 0; i < feats[f].numel(); ++i) {
      const float orig = feats[f].data()[i];
      feats[f].data()[i] = orig + eps;
      const double lp = loss();
      feats[f].data()[i] = orig - eps;
      const double lm = loss();
      feats[f].data()[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(analytic[f].data()[i], numeric, 2e-2)
          << "feature " << f << " elem " << i;
    }
  }
}

/// The i-k-j loop MatMulInto's register tiles must reproduce bit for bit:
/// every c(i, j) adds a(i, kk) * b(kk, j) in ascending kk into a +0 start.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t kk = 0; kk < a.cols(); ++kk) {
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += a(i, kk) * b(kk, j);
    }
  }
  return c;
}

bool SameBits(const Tensor& x, const Tensor& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) == 0;
}

TEST(OpsTest, BlockedMatMulMatchesNaive) {
  Xoshiro256 rng(7);
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{3, 5, 7},
                         {64, 128, 96},
                         {257, 300, 129},
                         {1, 400, 1}}) {
    Tensor a = Tensor::Randn(m, k, 1.0f, rng);
    Tensor b = Tensor::Randn(k, n, 1.0f, rng);
    EXPECT_TRUE(SameBits(Product(a, b), NaiveMatMul(a, b)))
        << m << "x" << k << "x" << n;
  }
}

TEST(OpsTest, MatMulDispatchMatchesNaiveOnLargeShapes) {
  Xoshiro256 rng(8);
  Tensor a = Tensor::Randn(300, 400, 1.0f, rng);
  Tensor b = Tensor::Randn(400, 350, 1.0f, rng);
  EXPECT_TRUE(SameBits(Product(a, b), NaiveMatMul(a, b)));
}

TEST(OpsDeathTest, MatMulShapeMismatchAborts) {
  Tensor a(2, 3);
  Tensor b(4, 2);
  Tensor c;
  EXPECT_DEATH(MatMulInto(c, a, b), "Check failed");
}

TEST(OpsDeathTest, InteractionBackwardShapeMismatchAborts) {
  Tensor f0(2, 4);
  Tensor grad_out(2, 1);
  std::vector<Tensor> grads(2);
  // Every feature block must match the first one's [rows, d].
  Tensor narrow(2, 3);
  std::vector<const Tensor*> ptrs = {&f0, &narrow};
  EXPECT_DEATH(PairwiseDotInteractionBackwardInto(grads, grad_out, ptrs),
               "Check failed");
  Tensor short_rows(1, 4);
  ptrs = {&f0, &short_rows};
  EXPECT_DEATH(PairwiseDotInteractionBackwardInto(grads, grad_out, ptrs),
               "Check failed");
}

}  // namespace
}  // namespace fae
