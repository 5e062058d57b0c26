#ifndef FAE_MODELS_REC_MODEL_H_
#define FAE_MODELS_REC_MODEL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "data/batch_view.h"
#include "embedding/embedding_table.h"
#include "tensor/linear.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fae {

/// Outcome of one training step's forward+backward. Dense parameter
/// gradients accumulate inside the model's Parameters; the embedding
/// gradients go to the step's SparseApplyFn.
struct StepResult {
  double loss = 0.0;
  size_t correct = 0;
  size_t batch_size = 0;
};

/// Work units of a batch, consumed by the simulation cost model.
struct BatchWork {
  /// Global batch size (the cost model derives per-GPU occupancy from it).
  uint64_t batch_size = 0;
  /// Dense-network FLOPs of the forward pass (backward is ~2x).
  uint64_t forward_flops = 0;
  /// Bytes gathered from embedding tables (lookups x dim x 4).
  uint64_t embedding_read_bytes = 0;
  /// Bytes of embedding activations shipped CPU->GPU in the baseline
  /// placement (pooled output: B x tables x dim x 4).
  uint64_t embedding_activation_bytes = 0;
  /// Distinct embedding rows touched (optimizer and scatter cost).
  uint64_t touched_rows = 0;
  /// touched_rows x dim x 4 — the sparse optimizer's working set.
  uint64_t touched_bytes = 0;
  /// Total dense trainable parameters (all-reduce payload).
  uint64_t dense_param_count = 0;
  /// Per-table lookups and distinct touched rows, for placement-aware
  /// accounting (the NvOPT comparator splits tables across devices).
  std::vector<uint64_t> per_table_lookups;
  std::vector<uint64_t> per_table_touched;
};

/// Consumes one table's sparse backward inline during a step: receives
/// dL/dout [B, dim] for `table` plus the batch's CSR lookup list (offsets
/// follow the RowGroups relative-offset contract). The training step's
/// functor scatters and applies the optimizer in one pass
/// (SparseSgd::FusedBackwardStep); the tests' materialized reference
/// (tests/materialized_step.h) captures the gradient instead. Called once
/// per table. `grad_out` and the lookup list are valid only during the
/// call.
using SparseApplyFn = std::function<void(
    size_t table, const Tensor& grad_out,
    std::span<const uint32_t> indices,
    std::span<const uint32_t> offsets)>;

/// Interface shared by DLRM and TBSM: real numerics, explicit gradients.
///
/// Batches arrive as non-owning BatchViews into a FlatDataset; the view's
/// backing store must stay alive for the duration of the call. Each model
/// has one forward, into member workspaces, which training and EvalLogits
/// share, and one backward: ForwardBackwardFusedOn accumulates dense
/// gradients in the model's Parameters (the caller then runs Sgd) and
/// hands each table's output gradient to a SparseApplyFn.
class RecModel {
 public:
  virtual ~RecModel() = default;

  /// Installs a shared worker pool used by the model's dense and embedding
  /// kernels (nullptr restores serial execution). All kernels partition
  /// work write-disjointly, so results are bit-identical at any thread
  /// count.
  virtual void SetThreadPool(ThreadPool* pool) { (void)pool; }

  /// Forward and backward against `tables`: the model's own (master)
  /// tables, or the FAE engine's GPU hot-replica tables, in which case
  /// `batch` indices must already be in the replica's coordinate space.
  /// Each table's output gradient goes to `apply` once, after the dense
  /// backward; the step reads no table after that, so `apply` may update
  /// the tables in place.
  virtual StepResult ForwardBackwardFusedOn(
      const BatchView& batch, const std::vector<EmbeddingTable*>& tables,
      const SparseApplyFn& apply) = 0;

  /// Logits [B, 1]: the training forward on the model's own tables, with
  /// no gradient work. Returns the logit workspace, valid until the next
  /// forward. It overwrites the activations a backward would read, so a
  /// caller evaluates between steps, never between a step's forward and
  /// its backward.
  virtual const Tensor& EvalLogits(const BatchView& batch) = 0;

  virtual std::vector<Parameter*> DenseParams() = 0;

  virtual std::vector<EmbeddingTable>& tables() = 0;
  virtual const std::vector<EmbeddingTable>& tables() const = 0;

  virtual size_t embedding_dim() const = 0;

  /// Cost-model work units for `batch`.
  virtual BatchWork Work(const BatchView& batch) const = 0;

 protected:
  /// Pointers to tables(), rebuilt per call in a reused buffer (so no
  /// allocation once grown).
  const std::vector<EmbeddingTable*>& OwnTables() {
    own_tables_.clear();
    for (EmbeddingTable& t : tables()) own_tables_.push_back(&t);
    return own_tables_;
  }

 private:
  std::vector<EmbeddingTable*> own_tables_;
};

}  // namespace fae

#endif  // FAE_MODELS_REC_MODEL_H_
