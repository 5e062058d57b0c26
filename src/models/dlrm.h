#ifndef FAE_MODELS_DLRM_H_
#define FAE_MODELS_DLRM_H_

#include <cstdint>
#include <vector>

#include "models/distinct_counter.h"
#include "models/model_config.h"
#include "models/rec_model.h"
#include "tensor/loss.h"
#include "tensor/mlp.h"

namespace fae {

/// Deep Learning Recommendation Model (Naumov et al., the paper's RMC2 and
/// RMC3): bottom MLP over dense features, one sum-pooled embedding bag per
/// categorical table, pairwise-dot feature interaction, top MLP to a
/// click-probability logit.
///
/// Training steps and evaluation run entirely in member workspaces
/// (activations, interaction buffers, gradients) sized on the first batch
/// and reused — the fused step and the eval forward perform zero heap
/// allocations at steady state.
class Dlrm : public RecModel {
 public:
  Dlrm(const DatasetSchema& schema, const ModelConfig& config, uint64_t seed);

  StepResult ForwardBackwardFusedOn(
      const BatchView& batch, const std::vector<EmbeddingTable*>& tables,
      const SparseApplyFn& apply) override;

  void SetThreadPool(ThreadPool* pool) override {
    pool_ = pool;
    bottom_.set_thread_pool(pool);
    top_.set_thread_pool(pool);
  }

  const Tensor& EvalLogits(const BatchView& batch) override;

  std::vector<Parameter*> DenseParams() override;
  std::vector<EmbeddingTable>& tables() override { return tables_; }
  const std::vector<EmbeddingTable>& tables() const override {
    return tables_;
  }
  size_t embedding_dim() const override { return schema_.embedding_dim; }
  BatchWork Work(const BatchView& batch) const override;

 private:
  /// The forward into the member workspaces; returns the top MLP's logit
  /// workspace.
  const Tensor& Forward(const BatchView& batch,
                        const std::vector<EmbeddingTable*>& tables);

  DatasetSchema schema_;
  ModelConfig config_;
  Mlp bottom_;
  Mlp top_;
  std::vector<EmbeddingTable> tables_;
  ThreadPool* pool_ = nullptr;  // not owned

  // Step workspaces, reused across batches (capacity sticks at the largest
  // batch seen). `features_` holds {bottom out, emb_out_...} pointers for
  // the interaction kernels; its pointees live for the whole step.
  // `top_in_` is the interaction's output, [bottom out | pairs].
  std::vector<Tensor> emb_out_;
  std::vector<const Tensor*> features_;
  Tensor top_in_;
  BceResult bce_;
  std::vector<Tensor> feat_grads_;
  mutable DistinctCounter work_distinct_;  // Work()'s touched-row counts
};

}  // namespace fae

#endif  // FAE_MODELS_DLRM_H_
