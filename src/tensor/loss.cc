#include "tensor/loss.h"

#include <cmath>

#include "util/logging.h"

namespace fae {
namespace {

// log(1 + exp(z)) without overflow.
inline double Softplus(double z) {
  if (z > 0) return z + std::log1p(std::exp(-z));
  return std::log1p(std::exp(z));
}

}  // namespace

void BceWithLogitsInto(BceResult& result, const Tensor& logits,
                       std::span<const float> labels) {
  FAE_CHECK_EQ(logits.cols(), 1u);
  FAE_CHECK_EQ(logits.rows(), labels.size());
  const size_t b = labels.size();
  result.grad_logits.Resize(b, 1);
  result.correct = 0;
  double total = 0.0;
  for (size_t i = 0; i < b; ++i) {
    const double z = logits(i, 0);
    const double y = labels[i];
    // loss = softplus(z) - y*z  (stable form of -y log p - (1-y) log(1-p)).
    total += Softplus(z) - y * z;
    const double p = 1.0 / (1.0 + std::exp(-z));
    result.grad_logits(i, 0) =
        static_cast<float>((p - y) / static_cast<double>(b));
    if ((p >= 0.5 && y >= 0.5) || (p < 0.5 && y < 0.5)) ++result.correct;
  }
  result.mean_loss = b > 0 ? total / static_cast<double>(b) : 0.0;
}

double BceLossOnly(const Tensor& logits, std::span<const float> labels) {
  FAE_CHECK_EQ(logits.cols(), 1u);
  FAE_CHECK_EQ(logits.rows(), labels.size());
  double total = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    const double z = logits(i, 0);
    total += Softplus(z) - labels[i] * z;
  }
  return labels.empty() ? 0.0 : total / static_cast<double>(labels.size());
}

}  // namespace fae
