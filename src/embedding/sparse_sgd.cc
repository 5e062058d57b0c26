#include "embedding/sparse_sgd.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "util/logging.h"

namespace fae {
namespace {

/// Below this many touched rows the pool dispatch costs more than the
/// update itself.
constexpr size_t kMinRowsToParallelize = 64;

}  // namespace

void SparseSgd::FusedBackwardStep(EmbeddingTable& table,
                                  const Tensor& grad_out,
                                  std::span<const uint32_t> indices,
                                  std::span<const uint32_t> offsets,
                                  ThreadPool* pool,
                                  RowUpdateFilter* filter) {
  FAE_CHECK_EQ(grad_out.cols(), table.dim());
  FAE_CHECK_EQ(grad_out.rows() + 1, offsets.size());
  if (indices.empty()) return;
  const size_t dim = table.dim();
  const float neg_lr = -lr_;
  rg_.Rebuild(indices, offsets);
  const RowGroups& rg = rg_;
  // Filter verdicts first, serially: BeginVisit mutates per-row tracker
  // state, and a vetoed row must not even be staged below (skipping keeps
  // it frozen verbatim, compressed storage included). The member scratch
  // keeps the steady state allocation-free.
  if (filter != nullptr) {
    skip_.resize(rg.num_rows());
    for (size_t s = 0; s < rg.num_rows(); ++s) {
      const uint32_t lookups = rg.group_start[s + 1] - rg.group_start[s];
      skip_[s] = filter->BeginVisit(rg.row_ids[s], lookups) ? 1 : 0;
    }
  }
  // Staging pre-pass (serial: EnsureResidentRow mutates the staging
  // buffer): touched cold rows become fp32 before the (possibly pooled)
  // update loop takes row pointers.
  if (table.compressed()) {
    for (size_t s = 0; s < rg.num_rows(); ++s) {
      if (filter != nullptr && skip_[s] != 0) continue;
      table.EnsureResidentRow(rg.row_ids[s]);
    }
  }
  // One row's accumulate + update + (with a filter) EMA measurement. The
  // arithmetic applied to the table row is identical with and without a
  // filter — the Dot measurements read, never write.
  auto update_row = [&](size_t s, float* acc) {
    std::fill(acc, acc + dim, 0.0f);
    for (uint32_t g = rg.group_start[s]; g < rg.group_start[s + 1]; ++g) {
      kernels::Add(dim, grad_out.row(rg.sample_of[rg.positions[g]]), acc);
    }
    float* row = table.row(rg.row_ids[s]);
    if (filter != nullptr) {
      const double row_sq = kernels::Dot(dim, row, row);
      const double acc_sq = kernels::Dot(dim, acc, acc);
      kernels::Axpy(dim, neg_lr, acc, row);
      filter->RecordUpdate(rg.row_ids[s],
                           rg.group_start[s + 1] - rg.group_start[s],
                           static_cast<double>(lr_) * lr_ * acc_sq, row_sq);
    } else {
      kernels::Axpy(dim, neg_lr, acc, row);
    }
  };
  if (pool != nullptr && rg.num_rows() >= kMinRowsToParallelize) {
    pool->ParallelFor(rg.num_rows(), [&](size_t s0, size_t s1) {
      // Pooled path: per-task accumulator (threads must not share one).
      std::vector<float> acc(dim);
      for (size_t s = s0; s < s1; ++s) {
        if (filter != nullptr && skip_[s] != 0) continue;
        update_row(s, acc.data());
      }
    });
    return;
  }
  // Serial path: member accumulator — no allocation once warmed up.
  acc_.resize(dim);
  for (size_t s = 0; s < rg.num_rows(); ++s) {
    if (filter != nullptr && skip_[s] != 0) continue;
    update_row(s, acc_.data());
  }
}

}  // namespace fae
