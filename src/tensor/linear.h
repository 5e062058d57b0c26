#ifndef FAE_TENSOR_LINEAR_H_
#define FAE_TENSOR_LINEAR_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fae {

/// A trainable tensor and its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  size_t numel() const { return value.numel(); }
};

/// Fully-connected layer y = x W + b with manual backward.
///
/// W is [in, out], b is [1, out]. Forward takes a non-owning MatView and
/// caches the *view* (not a copy) so Backward can form weight gradients:
/// the caller must keep the forward input alive and unmodified until
/// Backward returns. All activations and gradients are computed into
/// member workspaces, so a warmed-up train step allocates nothing.
class Linear {
 public:
  /// He-style initialization scaled for fan-in.
  Linear(size_t in, size_t out, Xoshiro256& rng, std::string name = "linear");

  /// y = x W + b into the layer's output workspace; caches the view of x.
  const Tensor& Forward(MatView x);

  /// Accumulates dW, db and returns dL/dx (a member workspace, valid until
  /// the next Backward; non-const so chained consumers can mask it in
  /// place).
  Tensor& Backward(const Tensor& grad_out);

  /// Accumulates dW and db only, for a caller that has no use for dL/dx.
  void BackwardParams(const Tensor& grad_out);

  /// Layer output of the last Forward.
  const Tensor& out() const { return out_; }

  size_t in_features() const { return weight_.value.rows(); }
  size_t out_features() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  /// Pointers to this layer's parameters, for optimizers and all-reduce.
  std::vector<Parameter*> Params();

  /// Installs a shared worker pool for the layer's GEMMs (nullptr runs
  /// them serially). Results are bit-identical at any thread count.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  Parameter weight_;
  Parameter bias_;
  MatView cached_input_;
  ThreadPool* pool_ = nullptr;  // not owned

  // Reused across steps (workspace semantics — see Tensor::Resize).
  Tensor out_;
  Tensor grad_in_;
  Tensor wgrad_ws_;
  Tensor bgrad_ws_;
};

}  // namespace fae

#endif  // FAE_TENSOR_LINEAR_H_
