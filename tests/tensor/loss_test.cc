#include "tensor/loss.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace fae {
namespace {

TEST(LossTest, KnownValueAtZeroLogit) {
  Tensor logits(2, 1, {0, 0});
  const std::vector<float> labels = {1, 0};
  BceResult r;
  BceWithLogitsInto(r, logits, labels);
  // -log(0.5) for both samples.
  EXPECT_NEAR(r.mean_loss, std::log(2.0), 1e-6);
}

TEST(LossTest, ConfidentCorrectPredictionsHaveLowLoss) {
  Tensor logits(2, 1, {10, -10});
  const std::vector<float> labels = {1, 0};
  BceResult r;
  BceWithLogitsInto(r, logits, labels);
  EXPECT_LT(r.mean_loss, 1e-3);
  EXPECT_EQ(r.correct, 2u);
}

TEST(LossTest, ConfidentWrongPredictionsHaveHighLoss) {
  Tensor logits(2, 1, {10, -10});
  const std::vector<float> labels = {0, 1};
  BceResult r;
  BceWithLogitsInto(r, logits, labels);
  EXPECT_GT(r.mean_loss, 5.0);
  EXPECT_EQ(r.correct, 0u);
}

TEST(LossTest, GradientIsSigmoidMinusLabelOverBatch) {
  Tensor logits(2, 1, {0, 2});
  const std::vector<float> labels = {1, 0};
  BceResult r;
  BceWithLogitsInto(r, logits, labels);
  EXPECT_NEAR(r.grad_logits(0, 0), (0.5 - 1.0) / 2.0, 1e-6);
  const double p1 = 1.0 / (1.0 + std::exp(-2.0));
  EXPECT_NEAR(r.grad_logits(1, 0), (p1 - 0.0) / 2.0, 1e-6);
}

TEST(LossTest, GradientMatchesNumericalDerivative) {
  Tensor logits(3, 1, {0.3f, -1.2f, 2.4f});
  std::vector<float> labels = {1, 0, 1};
  BceResult r;
  BceWithLogitsInto(r, logits, labels);
  const float eps = 1e-3f;
  for (size_t i = 0; i < 3; ++i) {
    Tensor lp = logits;
    Tensor lm = logits;
    lp(i, 0) += eps;
    lm(i, 0) -= eps;
    const double numeric =
        (BceLossOnly(lp, labels) - BceLossOnly(lm, labels)) / (2 * eps);
    EXPECT_NEAR(r.grad_logits(i, 0), numeric, 1e-4);
  }
}

TEST(LossTest, NumericallyStableForExtremeLogits) {
  Tensor logits(2, 1, {500, -500});
  const std::vector<float> labels = {0, 1};
  BceResult r;
  BceWithLogitsInto(r, logits, labels);
  EXPECT_TRUE(std::isfinite(r.mean_loss));
  EXPECT_NEAR(r.mean_loss, 500.0, 1e-6);
}

TEST(LossTest, LossOnlyAgreesWithFull) {
  Tensor logits(3, 1, {0.5f, -0.25f, 1.0f});
  std::vector<float> labels = {0, 1, 1};
  BceResult r;
  BceWithLogitsInto(r, logits, labels);
  EXPECT_NEAR(BceLossOnly(logits, labels), r.mean_loss, 1e-12);
}

TEST(LossTest, EmptyBatch) {
  Tensor logits(0, 1);
  const std::vector<float> labels;
  BceResult r;
  BceWithLogitsInto(r, logits, labels);
  EXPECT_EQ(r.mean_loss, 0.0);
  EXPECT_EQ(r.correct, 0u);
}

}  // namespace
}  // namespace fae
