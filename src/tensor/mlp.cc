#include "tensor/mlp.h"

#include "tensor/ops.h"
#include "util/string_util.h"

namespace fae {

Mlp::Mlp(const std::vector<size_t>& dims, Xoshiro256& rng, std::string name) {
  FAE_CHECK_GE(dims.size(), 2u) << "MLP needs at least one layer";
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng,
                         StrFormat("%s.%zu", name.c_str(), i));
  }
  if (layers_.size() > 1) post_.resize(layers_.size() - 1);
}

const Tensor& Mlp::Forward(MatView x) {
  MatView h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Tensor& pre = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) {
      ReluForwardInto(post_[i], pre);
      h = post_[i];
    }
  }
  return layers_.back().out();
}

const Tensor& Mlp::BackwardToFirst(const Tensor& grad_out) {
  const Tensor* g = &grad_out;
  for (size_t i = layers_.size(); i-- > 1;) {
    // Backward returns the layer's grad_in workspace; masking it in place
    // by the previous layer's pre-ReLU output is the ReLU backward.
    Tensor& gi = layers_[i].Backward(*g);
    ReluBackwardInPlace(gi, layers_[i - 1].out());
    g = &gi;
  }
  return *g;
}

const Tensor& Mlp::Backward(const Tensor& grad_out) {
  return layers_.front().Backward(BackwardToFirst(grad_out));
}

void Mlp::BackwardParamsOnly(const Tensor& grad_out) {
  layers_.front().BackwardParams(BackwardToFirst(grad_out));
}

std::vector<Parameter*> Mlp::Params() {
  std::vector<Parameter*> out;
  for (Linear& l : layers_) {
    for (Parameter* p : l.Params()) out.push_back(p);
  }
  return out;
}

size_t Mlp::in_features() const { return layers_.front().in_features(); }
size_t Mlp::out_features() const { return layers_.back().out_features(); }

size_t Mlp::NumParams() const {
  size_t n = 0;
  for (const Linear& l : layers_) {
    n += l.in_features() * l.out_features() + l.out_features();
  }
  return n;
}

uint64_t Mlp::ForwardFlops(size_t b) const {
  uint64_t flops = 0;
  for (const Linear& l : layers_) {
    flops += 2ULL * b * l.in_features() * l.out_features();
  }
  return flops;
}

}  // namespace fae
