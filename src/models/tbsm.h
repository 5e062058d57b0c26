#ifndef FAE_MODELS_TBSM_H_
#define FAE_MODELS_TBSM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "models/distinct_counter.h"
#include "models/model_config.h"
#include "models/rec_model.h"
#include "tensor/attention.h"
#include "tensor/loss.h"
#include "tensor/mlp.h"

namespace fae {

/// Time-Based Sequence Model (Ishkhanov et al., the paper's RMC1):
/// DLRM-style embedding + MLP stack augmented with a deep attention layer
/// over each user's item history.
///
/// Input convention for sequential schemas: table 0 is the item table and
/// `indices[0]` carries the user's history with the *target* item last;
/// earlier entries (or, for singleton sequences, the target itself) form
/// the attention keys. Remaining tables contribute one pooled lookup each.
///
/// The variable-length history split keeps TBSM off the strict zero-alloc
/// path (per-sample history matrices are sized by the data); the dense
/// stacks it feeds (stacked history, top input) are members so the MLPs'
/// cached input views stay valid through Backward. Evaluation runs the
/// same forward.
class Tbsm : public RecModel {
 public:
  Tbsm(const DatasetSchema& schema, const ModelConfig& config, uint64_t seed);

  StepResult ForwardBackwardFusedOn(
      const BatchView& batch, const std::vector<EmbeddingTable*>& tables,
      const SparseApplyFn& apply) override;

  void SetThreadPool(ThreadPool* pool) override {
    pool_ = pool;
    bottom_.set_thread_pool(pool);
    top_.set_thread_pool(pool);
    if (step_mlp_) step_mlp_->set_thread_pool(pool);
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
  struct SequenceView {
    // Per-sample positions into batch.indices(0) — rebased to the batch
    // (the view's absolute CSR offsets are subtracted out).
    uint32_t begin = 0;   // first history index
    uint32_t target = 0;  // position of the target item
    uint32_t history_len = 0;
  };

  static std::vector<SequenceView> SplitSequences(const BatchView& batch);

  /// The forward into the member workspaces; returns the top MLP's logit
  /// workspace.
  const Tensor& Forward(const BatchView& batch,
                        const std::vector<EmbeddingTable*>& tables);

  DatasetSchema schema_;
  ModelConfig config_;
  Mlp bottom_;
  Mlp top_;
  /// Per-timestep transform over history embeddings (identity when the
  /// config leaves step_mlp empty).
  std::optional<Mlp> step_mlp_;
  std::vector<EmbeddingTable> tables_;
  ThreadPool* pool_ = nullptr;  // not owned

  // Forward caches consumed by the following backward. cached_stacked_
  // and cached_top_in_ back the step/top MLPs' input views, so they must
  // live here, not on the forward's stack.
  DotAttention attention_;
  Tensor cached_stacked_;
  Tensor cached_top_in_;
  std::vector<SequenceView> cached_seq_;
  // Step workspaces, reused across batches. `split_` holds the gradients
  // of the top MLP's input blocks.
  std::vector<Tensor> pooled_;
  BceResult bce_;
  std::vector<Tensor> split_;
  std::vector<Tensor*> split_outs_;
  std::vector<size_t> split_widths_;
  mutable DistinctCounter work_distinct_;  // Work()'s touched-row counts
};

}  // namespace fae

#endif  // FAE_MODELS_TBSM_H_
