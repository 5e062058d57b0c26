#ifndef FAE_ENGINE_STEP_EXECUTOR_H_
#define FAE_ENGINE_STEP_EXECUTOR_H_

#include <memory>
#include <vector>

#include "data/batch_view.h"
#include "data/dataset.h"
#include "embedding/sparse_sgd.h"
#include "engine/metrics.h"
#include "models/rec_model.h"
#include "tensor/sgd.h"
#include "util/thread_pool.h"

namespace fae {

class StalenessTracker;

/// The reusable execution core shared by the batch Trainer and the online
/// ServingLoop: it owns the optimizers, the kernel thread pool, the
/// prebuilt fused-apply functor, and the eval/batch-staging helpers, so a
/// driver only sequences *which* batches step against *which* tables.
/// Everything here preserves the batch trainer's numeric contract: the
/// step is bit-identical at any thread count and adds no heap allocation
/// of its own at steady state (DLRM's whole step allocates nothing;
/// DESIGN.md §10).
class StepExecutor {
 public:
  /// The subset of TrainOptions the execution core needs; both TrainOptions
  /// and ServeOptions can produce one.
  struct Options {
    float dense_lr = 0.1f;
    float sparse_lr = 0.1f;
    /// When false, drivers only run the hardware cost model; MathStep is
    /// never called, but eval-set construction is also skipped.
    bool run_math = true;
    /// Emulate fp16 embedding storage (see TrainOptions::fp16_embeddings).
    bool fp16_embeddings = false;
    size_t num_threads = 1;
    size_t eval_samples = 2048;
    size_t eval_batch = 512;
  };

  /// Held-out eval data gathered once into a flat buffer; `views` are
  /// zero-copy batches into `flat` (so the struct must stay alive while
  /// they are in use; moves are safe — views point at heap buffers).
  struct EvalSet {
    FlatDataset flat;
    std::vector<BatchView> views;
  };

  /// A training batch with its cost-model work units, computed once —
  /// Work() is pure per batch, so the per-epoch loops only shuffle and
  /// charge, never re-derive.
  struct TrainBatch {
    BatchView view;
    BatchWork work;
  };

  StepExecutor(RecModel* model, const Options& options);

  /// Quantizes every table through binary16 when fp16 storage is emulated
  /// (no-op otherwise); drivers call it once before their first step.
  void MaybeQuantizeTables();

  /// One training step into the model's workspaces: forward, backward,
  /// dense SGD, and per table a fused scatter + optimizer pass (followed,
  /// under fp16_embeddings, by rounding the table's looked-up rows through
  /// binary16). The step itself adds no heap allocation once warmed up:
  /// the apply functor is a prebuilt member (single-pointer capture, so
  /// std::function's SBO holds it), dense params are gathered once, and
  /// scatter + optimizer run in SparseSgd's reusable scratch.
  /// With a tracker, each table's fused apply consults it per row
  /// (stale-update skipping; engine/staleness_tracker.h). Only the drivers
  /// that own a tracker pass one — the FAE hot replicas and the
  /// ServingLoop never do, so their steps are untouched.
  void MathStep(const BatchView& batch,
                const std::vector<EmbeddingTable*>& tables,
                RunningMetric& metric, RunningMetric& window,
                StalenessTracker* tracker = nullptr);

  EvalSet MakeEvalSet(const Dataset& dataset,
                      const Dataset::Split& split) const;

  std::vector<TrainBatch> MakeTrainBatches(const FlatDataset& flat,
                                           size_t batch_size, bool hot) const;

  RecModel* model() const { return model_; }
  ThreadPool* pool() const { return pool_.get(); }
  const Options& options() const { return options_; }

 private:
  /// Context behind the prebuilt fused-apply functor: MathStep repoints
  /// `tables` and `tracker` per call (master vs. replica), nothing is
  /// reallocated.
  struct ApplyCtx {
    SparseSgd* sgd = nullptr;
    const std::vector<EmbeddingTable*>* tables = nullptr;
    ThreadPool* pool = nullptr;
    StalenessTracker* tracker = nullptr;
    bool fp16 = false;  // Options::fp16_embeddings
  };

  RecModel* model_;
  Options options_;
  Sgd dense_sgd_;
  SparseSgd sparse_sgd_;
  /// Kernel worker pool, shared with the model; null when num_threads <= 1.
  std::unique_ptr<ThreadPool> pool_;
  ApplyCtx apply_ctx_;
  SparseApplyFn fused_apply_;
  /// model_->DenseParams(), gathered on the first MathStep.
  std::vector<Parameter*> dense_params_;
};

}  // namespace fae

#endif  // FAE_ENGINE_STEP_EXECUTOR_H_
