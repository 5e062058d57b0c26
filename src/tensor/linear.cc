#include "tensor/linear.h"

#include <cmath>

#include "tensor/ops.h"

namespace fae {

Linear::Linear(size_t in, size_t out, Xoshiro256& rng, std::string name) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in));
  weight_.name = name + ".weight";
  weight_.value = Tensor::Randn(in, out, stddev, rng);
  weight_.grad = Tensor::Zeros(in, out);
  bias_.name = name + ".bias";
  bias_.value = Tensor::Zeros(1, out);
  bias_.grad = Tensor::Zeros(1, out);
}

const Tensor& Linear::Forward(MatView x) {
  cached_input_ = x;
  MatMulInto(out_, x, weight_.value, pool_);
  AddBiasRowwise(out_, bias_.value);
  return out_;
}

Tensor& Linear::Backward(const Tensor& grad_out) {
  BackwardParams(grad_out);
  MatMulTransBInto(grad_in_, grad_out, weight_.value, pool_);
  return grad_in_;
}

void Linear::BackwardParams(const Tensor& grad_out) {
  FAE_CHECK_EQ(grad_out.rows(), cached_input_.rows);
  FAE_CHECK_EQ(grad_out.cols(), weight_.value.cols());
  MatMulTransAInto(wgrad_ws_, cached_input_, grad_out, pool_);
  weight_.grad.Add(wgrad_ws_);
  ColumnSumsInto(bgrad_ws_, grad_out);
  bias_.grad.Add(bgrad_ws_);
}

std::vector<Parameter*> Linear::Params() { return {&weight_, &bias_}; }

}  // namespace fae
