#ifndef FAE_TENSOR_LOSS_H_
#define FAE_TENSOR_LOSS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace fae {

/// Result of a binary-cross-entropy evaluation over a batch.
struct BceResult {
  double mean_loss = 0.0;
  /// dL/dlogits, already divided by the batch size, shaped like the input.
  Tensor grad_logits;
  /// Number of samples whose rounded prediction matches the label.
  size_t correct = 0;
};

/// Numerically-stable binary cross entropy on logits [B, 1] against labels
/// (0/1): the mean loss, the gradient, and the hit count used for the
/// paper's accuracy metric (Fig 12, Table III). Reuses `result.grad_logits`
/// as a workspace and resets the scalar fields.
void BceWithLogitsInto(BceResult& result, const Tensor& logits,
                       std::span<const float> labels);

/// Loss only, for evaluation passes.
double BceLossOnly(const Tensor& logits, std::span<const float> labels);

}  // namespace fae

#endif  // FAE_TENSOR_LOSS_H_
