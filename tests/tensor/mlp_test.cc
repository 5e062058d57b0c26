#include "tensor/mlp.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/linear.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/sgd.h"

namespace fae {
namespace {

TEST(LinearTest, ForwardShape) {
  Xoshiro256 rng(1);
  Linear layer(4, 3, rng);
  Tensor x = Tensor::Randn(5, 4, 1.0f, rng);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  Xoshiro256 rng(2);
  Linear layer(2, 1, rng);
  layer.weight().value = Tensor(2, 1, {2, 3});
  layer.bias().value = Tensor(1, 1, {1});
  Tensor x(1, 2, {4, 5});
  Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 2 * 4 + 3 * 5 + 1);
}

TEST(LinearTest, GradientCheck) {
  Xoshiro256 rng(4);
  Linear layer(3, 2, rng);
  Tensor x = Tensor::Randn(4, 3, 1.0f, rng);
  Tensor grad_out = Tensor::Randn(4, 2, 1.0f, rng);

  auto loss = [&]() {
    const Tensor& y = layer.Forward(x);
    double l = 0;
    for (size_t i = 0; i < y.numel(); ++i) {
      l += y.data()[i] * grad_out.data()[i];
    }
    return l;
  };

  layer.Forward(x);
  Tensor grad_x = layer.Backward(grad_out);

  const float eps = 1e-3f;
  // Weight gradient.
  for (size_t i = 0; i < layer.weight().value.numel(); ++i) {
    float& w = layer.weight().value.data()[i];
    const float orig = w;
    w = orig + eps;
    const double lp = loss();
    w = orig - eps;
    const double lm = loss();
    w = orig;
    EXPECT_NEAR(layer.weight().grad.data()[i], (lp - lm) / (2 * eps), 2e-2);
  }
  // Bias gradient.
  for (size_t i = 0; i < layer.bias().value.numel(); ++i) {
    float& b = layer.bias().value.data()[i];
    const float orig = b;
    b = orig + eps;
    const double lp = loss();
    b = orig - eps;
    const double lm = loss();
    b = orig;
    EXPECT_NEAR(layer.bias().grad.data()[i], (lp - lm) / (2 * eps), 2e-2);
  }
  // Input gradient.
  for (size_t i = 0; i < x.numel(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double lp = loss();
    x.data()[i] = orig - eps;
    const double lm = loss();
    x.data()[i] = orig;
    EXPECT_NEAR(grad_x.data()[i], (lp - lm) / (2 * eps), 2e-2);
  }
}

TEST(MlpTest, RespectsArchitecture) {
  Xoshiro256 rng(5);
  Mlp mlp({13, 512, 256, 64, 16}, rng);
  EXPECT_EQ(mlp.in_features(), 13u);
  EXPECT_EQ(mlp.out_features(), 16u);
  EXPECT_EQ(mlp.NumParams(),
            13u * 512 + 512 + 512u * 256 + 256 + 256u * 64 + 64 + 64u * 16 + 16);
}

TEST(MlpTest, ForwardFlopsFormula) {
  Xoshiro256 rng(6);
  Mlp mlp({4, 8, 2}, rng);
  EXPECT_EQ(mlp.ForwardFlops(10), 2ull * 10 * 4 * 8 + 2ull * 10 * 8 * 2);
}

TEST(MlpTest, GradientCheckThroughRelu) {
  Xoshiro256 rng(7);
  Mlp mlp({3, 5, 2}, rng);
  Tensor x = Tensor::Randn(4, 3, 1.0f, rng);
  Tensor grad_out = Tensor::Randn(4, 2, 1.0f, rng);

  auto loss = [&]() {
    const Tensor& y = mlp.Forward(x);
    double l = 0;
    for (size_t i = 0; i < y.numel(); ++i) {
      l += y.data()[i] * grad_out.data()[i];
    }
    return l;
  };

  mlp.Forward(x);
  Tensor grad_x = mlp.Backward(grad_out);

  const float eps = 1e-3f;
  for (Parameter* p : mlp.Params()) {
    for (size_t i = 0; i < p->value.numel(); ++i) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const double lp = loss();
      p->value.data()[i] = orig - eps;
      const double lm = loss();
      p->value.data()[i] = orig;
      EXPECT_NEAR(p->grad.data()[i], (lp - lm) / (2 * eps), 3e-2)
          << p->name << " elem " << i;
    }
  }
  for (size_t i = 0; i < x.numel(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double lp = loss();
    x.data()[i] = orig - eps;
    const double lm = loss();
    x.data()[i] = orig;
    EXPECT_NEAR(grad_x.data()[i], (lp - lm) / (2 * eps), 3e-2);
  }
}

// The models' bottom MLPs skip the input gradient; their parameter
// gradients must be Backward's bit for bit, one layer deep and several.
TEST(MlpTest, BackwardParamsOnlyMatchesBackward) {
  for (const std::vector<size_t>& dims :
       {std::vector<size_t>{3, 2}, std::vector<size_t>{13, 8, 5, 4}}) {
    Xoshiro256 rng(10);
    Mlp full(dims, rng);
    Xoshiro256 rng_copy(10);
    Mlp params_only(dims, rng_copy);
    Tensor x = Tensor::Randn(6, dims.front(), 1.0f, rng);
    Tensor grad_out = Tensor::Randn(6, dims.back(), 1.0f, rng);
    full.Forward(x);
    full.Backward(grad_out);
    params_only.Forward(x);
    params_only.BackwardParamsOnly(grad_out);
    const std::vector<Parameter*> want = full.Params();
    const std::vector<Parameter*> got = params_only.Params();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i]->grad.numel(), got[i]->grad.numel());
      EXPECT_EQ(0, std::memcmp(want[i]->grad.data(), got[i]->grad.data(),
                               want[i]->grad.numel() * sizeof(float)))
          << want[i]->name;
    }
  }
}

TEST(MlpTest, LearnsXorLikeTask) {
  // A 2-layer MLP with BCE should fit a small nonlinear dataset.
  Xoshiro256 rng(8);
  Mlp mlp({2, 16, 1}, rng);
  Sgd sgd(0.5f);
  Tensor x(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  std::vector<float> labels = {0, 1, 1, 0};
  double final_loss = 1e9;
  for (int iter = 0; iter < 2000; ++iter) {
    BceResult r;
    BceWithLogitsInto(r, mlp.Forward(x), labels);
    mlp.Backward(r.grad_logits);
    sgd.Step(mlp.Params());
    final_loss = r.mean_loss;
  }
  EXPECT_LT(final_loss, 0.1);
}

TEST(MlpDeathTest, SingleDimRejected) {
  Xoshiro256 rng(9);
  EXPECT_DEATH(Mlp({5}, rng), "at least one layer");
}

}  // namespace
}  // namespace fae
