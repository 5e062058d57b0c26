#include "models/dlrm.h"

#include "embedding/embedding_bag.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace fae {

Dlrm::Dlrm(const DatasetSchema& schema, const ModelConfig& config,
           uint64_t seed)
    : schema_(schema),
      config_(config),
      bottom_([&] {
        Xoshiro256 rng(seed);
        return Mlp(config.bottom_mlp, rng, "bottom");
      }()),
      top_([&] {
        Xoshiro256 rng(seed + 1);
        return Mlp(config.top_mlp, rng, "top");
      }()) {
  FAE_CHECK_EQ(config_.bottom_mlp.front(), schema_.num_dense);
  FAE_CHECK_EQ(config_.bottom_mlp.back(), schema_.embedding_dim);
  FAE_CHECK_EQ(config_.top_mlp.front(), DlrmTopInputWidth(schema_));
  FAE_CHECK_EQ(config_.top_mlp.back(), 1u);
  Xoshiro256 rng(seed + 2);
  tables_.reserve(schema_.num_tables());
  for (uint64_t rows : schema_.table_rows) {
    tables_.emplace_back(rows, schema_.embedding_dim, rng);
  }
  // Fixed-shape workspace wiring; the tensors themselves size lazily.
  const size_t f = schema_.num_tables() + 1;
  emb_out_.resize(schema_.num_tables());
  features_.reserve(f);
  feat_grads_.resize(f);
}

const Tensor& Dlrm::Forward(const BatchView& batch,
                            const std::vector<EmbeddingTable*>& tables) {
  FAE_CHECK_EQ(tables.size(), schema_.num_tables());
  const Tensor& bottom_out = bottom_.Forward(batch.dense);
  for (size_t t = 0; t < tables.size(); ++t) {
    EmbeddingBag::ForwardInto(emb_out_[t], *tables[t], batch.indices(t),
                              batch.offsets(t), pool_);
  }
  features_.clear();
  features_.push_back(&bottom_out);
  for (const Tensor& e : emb_out_) features_.push_back(&e);
  // The interaction writes the top MLP's input, [bottom out | pairs].
  PairwiseDotInteractionInto(top_in_, features_, pool_);
  return top_.Forward(top_in_);
}

StepResult Dlrm::ForwardBackwardFusedOn(
    const BatchView& batch, const std::vector<EmbeddingTable*>& tables,
    const SparseApplyFn& apply) {
  const Tensor& logits = Forward(batch, tables);
  BceWithLogitsInto(bce_, logits, batch.labels);

  // Top MLP backward, then the interaction's from the top input's gradient
  // [direct | pairs]: feat_grads_[0] is the bottom output's pair sum plus
  // its direct gradient. `features_` still points at this step's forward
  // activations (bottom out lives in the bottom MLP's head layer, which
  // the top MLP's backward does not touch).
  const Tensor& g_top_in = top_.Backward(bce_.grad_logits);
  PairwiseDotInteractionBackwardInto(feat_grads_, g_top_in, features_,
                                     pool_);

  // Bottom MLP backward. Its input is the dense features, whose gradient
  // nothing reads.
  bottom_.BackwardParamsOnly(feat_grads_[0]);

  // Each table's output gradient goes straight to the sparse apply.
  for (size_t t = 0; t < schema_.num_tables(); ++t) {
    apply(t, feat_grads_[t + 1], batch.indices(t), batch.offsets(t));
  }
  return StepResult{bce_.mean_loss, bce_.correct, batch.batch_size()};
}

const Tensor& Dlrm::EvalLogits(const BatchView& batch) {
  return Forward(batch, OwnTables());
}

std::vector<Parameter*> Dlrm::DenseParams() {
  std::vector<Parameter*> params = bottom_.Params();
  for (Parameter* p : top_.Params()) params.push_back(p);
  return params;
}

BatchWork Dlrm::Work(const BatchView& batch) const {
  BatchWork w;
  const size_t b = batch.batch_size();
  w.batch_size = b;
  const size_t d = schema_.embedding_dim;
  const size_t f = schema_.num_tables() + 1;
  w.forward_flops = bottom_.ForwardFlops(b) + top_.ForwardFlops(b) +
                    2ULL * b * (f * (f - 1) / 2) * d;  // interaction dots
  w.embedding_read_bytes = batch.TotalLookups() * d * sizeof(float);
  w.embedding_activation_bytes =
      static_cast<uint64_t>(b) * schema_.num_tables() * d * sizeof(float);
  w.dense_param_count = bottom_.NumParams() + top_.NumParams();
  for (size_t t = 0; t < schema_.num_tables(); ++t) {
    const std::span<const uint32_t> idx = batch.indices(t);
    const size_t distinct = work_distinct_.Count(idx);
    w.touched_rows += distinct;
    w.per_table_lookups.push_back(idx.size());
    w.per_table_touched.push_back(distinct);
  }
  w.touched_bytes = w.touched_rows * d * sizeof(float);
  return w;
}

}  // namespace fae
