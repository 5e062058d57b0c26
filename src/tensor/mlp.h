#ifndef FAE_TENSOR_MLP_H_
#define FAE_TENSOR_MLP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/linear.h"
#include "tensor/tensor.h"

namespace fae {

/// Multi-layer perceptron with ReLU activations between layers.
///
/// `dims` lists the layer widths, e.g. {13, 512, 256, 64} builds three
/// Linear layers (the paper's Table I "Bottom MLP 13-512-256-64" notation).
/// The final layer's output is linear (no activation) — recommender heads
/// feed it into a sigmoid/BCE loss.
///
/// Forward takes a non-owning view and every activation lives in a member
/// workspace (each Linear keeps its own pre-ReLU output; post-ReLU copies
/// live here), so a warmed-up train step allocates nothing. The caller
/// must keep the forward input alive until Backward.
class Mlp {
 public:
  Mlp(const std::vector<size_t>& dims, Xoshiro256& rng,
      std::string name = "mlp");

  /// Caches activations for Backward; returns the head layer's output
  /// workspace (valid until the next Forward).
  const Tensor& Forward(MatView x);

  /// Returns dL/dx (a workspace, valid until the next Backward);
  /// accumulates layer parameter gradients.
  const Tensor& Backward(const Tensor& grad_out);

  /// The same parameter gradients for a caller that discards dL/dx (the
  /// models' bottom MLPs, whose input is the dense features): the first
  /// layer's input-gradient GEMM is skipped.
  void BackwardParamsOnly(const Tensor& grad_out);

  std::vector<Parameter*> Params();

  size_t in_features() const;
  size_t out_features() const;

  /// Total trainable scalars — used by the cost model for all-reduce and
  /// optimizer accounting.
  size_t NumParams() const;

  /// FLOPs of one forward pass at batch size `b` (2*m*k*n per layer).
  uint64_t ForwardFlops(size_t b) const;

  /// Installs a shared worker pool on every layer (nullptr = serial).
  void set_thread_pool(ThreadPool* pool) {
    for (Linear& l : layers_) l.set_thread_pool(pool);
  }

 private:
  /// Backward through layers [1, size) into layer 0's output gradient,
  /// masked by its ReLU.
  const Tensor& BackwardToFirst(const Tensor& grad_out);

  std::vector<Linear> layers_;
  // post_[i] holds ReLU(layers_[i].out()) — the input view layer i+1
  // caches, so it must stay alive (and unmodified) until Backward. The
  // pre-ReLU activation that gates the backward pass is each layer's own
  // out() workspace.
  std::vector<Tensor> post_;
};

}  // namespace fae

#endif  // FAE_TENSOR_MLP_H_
