#include "engine/step_executor.h"

#include "engine/staleness_tracker.h"
#include "util/half.h"
#include "util/logging.h"

namespace fae {

StepExecutor::StepExecutor(RecModel* model, const Options& options)
    : model_(model),
      options_(options),
      dense_sgd_(options.dense_lr),
      sparse_sgd_(options.sparse_lr) {
  FAE_CHECK(model != nullptr);
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    model_->SetThreadPool(pool_.get());
  }
  // The fused-apply functor is built once with a single-pointer capture, so
  // std::function's small-buffer optimization holds it — the training loop
  // never allocates a closure. MathStep repoints ctx->tables per call.
  apply_ctx_.sgd = &sparse_sgd_;
  apply_ctx_.pool = pool_.get();
  apply_ctx_.fp16 = options_.fp16_embeddings;
  fused_apply_ = [ctx = &apply_ctx_](size_t t, const Tensor& grad_out,
                                     std::span<const uint32_t> indices,
                                     std::span<const uint32_t> offsets) {
    EmbeddingTable& table = *(*ctx->tables)[t];
    ctx->sgd->FusedBackwardStep(
        table, grad_out, indices, offsets, ctx->pool,
        ctx->tracker != nullptr ? ctx->tracker->filter(t) : nullptr);
    if (!ctx->fp16) return;
    // fp16 storage: the updated rows lose everything binary16 cannot
    // represent. Rounding is idempotent, so a row looked up twice ends
    // the same as a row rounded once.
    for (uint32_t id : indices) {
      float* row = table.row(id);
      for (size_t k = 0; k < table.dim(); ++k) {
        row[k] = QuantizeToHalf(row[k]);
      }
    }
  };
}

void StepExecutor::MaybeQuantizeTables() {
  if (!options_.fp16_embeddings || !options_.run_math) return;
  // fp16 storage holds the *initialization* at half precision too, not
  // just the updates.
  for (EmbeddingTable& table : model_->tables()) {
    for (float& v : table.raw()) v = QuantizeToHalf(v);
  }
}

void StepExecutor::MathStep(const BatchView& batch,
                            const std::vector<EmbeddingTable*>& tables,
                            RunningMetric& metric, RunningMetric& window,
                            StalenessTracker* tracker) {
  if (dense_params_.empty()) dense_params_ = model_->DenseParams();
  if (tracker != nullptr) tracker->BeginStep();
  // Each table's backward scatter and optimizer update run as one fused
  // pass over the batch's lookup list; the gradient is never materialized.
  // Everything here runs in reused buffers: the model's workspaces, the
  // optimizer's scratch, the prebuilt apply functor.
  apply_ctx_.tables = &tables;
  apply_ctx_.tracker = tracker;
  StepResult step =
      model_->ForwardBackwardFusedOn(batch, tables, fused_apply_);
  dense_sgd_.Step(dense_params_);
  metric.Observe(step.loss, step.correct, step.batch_size);
  window.Observe(step.loss, step.correct, step.batch_size);
}

StepExecutor::EvalSet StepExecutor::MakeEvalSet(
    const Dataset& dataset, const Dataset::Split& split) const {
  EvalSet set;
  std::vector<uint64_t> ids = split.test;
  if (ids.size() > options_.eval_samples) ids.resize(options_.eval_samples);
  // One gather, then every eval pass streams the flat copy zero-copy.
  set.flat = dataset.flat().Gather(ids);
  set.views = MakeBatchViews(set.flat, options_.eval_batch, /*hot=*/false);
  return set;
}

std::vector<StepExecutor::TrainBatch> StepExecutor::MakeTrainBatches(
    const FlatDataset& flat, size_t batch_size, bool hot) const {
  std::vector<BatchView> views = MakeBatchViews(flat, batch_size, hot);
  std::vector<TrainBatch> out;
  out.reserve(views.size());
  for (BatchView& v : views) {
    BatchWork work = model_->Work(v);
    out.push_back(TrainBatch{std::move(v), std::move(work)});
  }
  return out;
}

}  // namespace fae
