// The materialized sparse backward: the reference the library's one sparse
// backward (SparseSgd::FusedBackwardStep, which scatters and updates in one
// pass) is checked against. A capturing SparseApplyFn takes each table's
// output gradient from RecModel::ForwardBackwardFusedOn, scatters it into
// sorted touched rows, and the optimizer then runs as a separate pass over
// those rows. The scatter sums in RowGroups order with kernels::Add and the
// update is x + (-lr)*g with kernels::Axpy, as the fused step does, so the
// two agree bit for bit.
//
// Used by the models' numerical gradient checks, FlatEquivalenceTest, and
// the seed step of bench/pipeline_throughput (through
// bench/seed_baseline.h).

#ifndef FAE_TESTS_MATERIALIZED_STEP_H_
#define FAE_TESTS_MATERIALIZED_STEP_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "data/batch_view.h"
#include "embedding/embedding_bag.h"
#include "embedding/embedding_table.h"
#include "models/rec_model.h"
#include "tensor/kernels.h"
#include "tensor/sgd.h"
#include "tensor/tensor.h"

namespace fae::test {

/// One table's gradient, materialized: the touched rows sorted ascending
/// (unique), and one dim-strided gradient vector per row, in that order.
struct RowGrad {
  size_t dim = 0;
  std::vector<uint64_t> row_ids;
  std::vector<float> values;

  size_t num_rows() const { return row_ids.size(); }
  const float* row(size_t slot) const { return values.data() + slot * dim; }

  /// Gradient vector of `id`, or nullptr when the step did not touch it.
  const float* Find(uint64_t id) const {
    const auto it = std::lower_bound(row_ids.begin(), row_ids.end(), id);
    if (it == row_ids.end() || *it != id) return nullptr;
    return row(static_cast<size_t>(it - row_ids.begin()));
  }
};

/// Scatters dL/dout [B, dim] onto the looked-up rows: each touched row sums
/// the output gradients of its lookups with kernels::Add, in traversal
/// order (RowGroups order). Offsets follow the RowGroups contract.
inline RowGrad ScatterRows(const Tensor& grad_out,
                           std::span<const uint32_t> indices,
                           std::span<const uint32_t> offsets) {
  RowGrad grad;
  grad.dim = grad_out.cols();
  if (indices.empty()) return grad;
  RowGroups rg;
  rg.Rebuild(indices, offsets);
  grad.row_ids = rg.row_ids;
  grad.values.assign(rg.num_rows() * grad.dim, 0.0f);
  for (size_t s = 0; s < rg.num_rows(); ++s) {
    float* acc = grad.values.data() + s * grad.dim;
    for (uint32_t g = rg.group_start[s]; g < rg.group_start[s + 1]; ++g) {
      kernels::Add(grad.dim, grad_out.row(rg.sample_of[rg.positions[g]]),
                   acc);
    }
  }
  return grad;
}

/// row + (-lr)*grad for every row of `grad`, in a pass of its own. A
/// compressed table first stages every touched cold row to fp32.
inline void ApplyRows(EmbeddingTable& table, const RowGrad& grad, float lr) {
  if (table.compressed()) {
    for (uint64_t id : grad.row_ids) table.EnsureResidentRow(id);
  }
  for (size_t s = 0; s < grad.num_rows(); ++s) {
    kernels::Axpy(grad.dim, -lr, grad.row(s), table.row(grad.row_ids[s]));
  }
}

/// Pointers to the model's own (master) tables.
inline std::vector<EmbeddingTable*> TablePtrs(RecModel& model) {
  std::vector<EmbeddingTable*> tables;
  for (EmbeddingTable& t : model.tables()) tables.push_back(&t);
  return tables;
}

/// A forward and backward whose embedding gradients are captured, one
/// RowGrad per table, and not applied. Dense gradients accumulate in the
/// model's Parameters as in any step.
struct MaterializedStep {
  StepResult result;
  std::vector<RowGrad> grads;
};

inline MaterializedStep ForwardBackwardMaterialized(
    RecModel& model, const BatchView& batch,
    const std::vector<EmbeddingTable*>& tables) {
  MaterializedStep step;
  step.grads.resize(tables.size());
  // The gradient and the lookup list live only for the call (TBSM builds
  // its item table's on the stack), so the scatter runs inside it.
  const SparseApplyFn capture = [&step](size_t t, const Tensor& grad_out,
                                        std::span<const uint32_t> indices,
                                        std::span<const uint32_t> offsets) {
    step.grads[t] = ScatterRows(grad_out, indices, offsets);
  };
  step.result = model.ForwardBackwardFusedOn(batch, tables, capture);
  return step;
}

inline MaterializedStep ForwardBackwardMaterialized(RecModel& model,
                                                    const BatchView& batch) {
  return ForwardBackwardMaterialized(model, batch, TablePtrs(model));
}

/// One whole SGD step the materialized way: forward and backward, the dense
/// SGD step, then a separate sparse update of every table at `sparse_lr`.
/// Bit-identical to StepExecutor::MathStep with the same learning rates.
inline StepResult MaterializedSgdStep(
    RecModel& model, const BatchView& batch,
    const std::vector<EmbeddingTable*>& tables, Sgd& dense_sgd,
    float sparse_lr) {
  const MaterializedStep step =
      ForwardBackwardMaterialized(model, batch, tables);
  dense_sgd.Step(model.DenseParams());
  for (size_t t = 0; t < tables.size(); ++t) {
    ApplyRows(*tables[t], step.grads[t], sparse_lr);
  }
  return step.result;
}

}  // namespace fae::test

#endif  // FAE_TESTS_MATERIALIZED_STEP_H_
