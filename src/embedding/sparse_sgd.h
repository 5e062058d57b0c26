#ifndef FAE_EMBEDDING_SPARSE_SGD_H_
#define FAE_EMBEDDING_SPARSE_SGD_H_

#include <span>
#include <vector>

#include "embedding/embedding_bag.h"
#include "embedding/embedding_table.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fae {

/// Per-row veto hook for the fused backward+step: lets the engine's
/// staleness tracker (engine/staleness_tracker.h) elide individual row
/// updates without the embedding layer depending on engine types.
/// BeginVisit runs once per touched row, serially, before any cold-row
/// staging — a vetoed row is neither staged nor written, so it stays
/// bit-identical to a frozen row. RecordUpdate runs once per applied
/// update, possibly from pool workers: implementations must be
/// thread-safe under the fused step's one-thread-per-row partition.
class RowUpdateFilter {
 public:
  virtual ~RowUpdateFilter() = default;
  /// True to skip this row's update. `lookups` is the number of gradient
  /// rows pooled into it this step (its scatter share).
  virtual bool BeginVisit(uint64_t row, uint32_t lookups) = 0;
  /// Reports one applied update: `update_sq` is ‖lr·Δrow‖², `row_sq` is
  /// ‖row‖² before the update.
  virtual void RecordUpdate(uint64_t row, uint32_t lookups,
                            double update_sq, double row_sq) = 0;
};

/// SGD over the sparse rows of an embedding table. The paper's latency
/// breakdown (Fig 14) shows this optimizer dominating baseline time when
/// it runs on the CPU; FAE moves it onto the GPUs for hot mini-batches.
class SparseSgd {
 public:
  explicit SparseSgd(float lr) : lr_(lr) {}

  /// Fused scatter + optimizer (the paper's CPU-side sparse-optimizer
  /// bottleneck, §II-C), the library's only sparse backward: accumulates
  /// dL/dout per touched row and applies row + (-lr)*grad in one pass over
  /// the grouped index list, without materializing the gradient. Compressed
  /// tables stage every touched cold row to fp32 first. Bit-identical to a
  /// scatter into sorted rows followed by a separate update pass (the
  /// reference in tests/materialized_step.h). Offsets follow the RowGroups
  /// relative-offset contract (rebased by offsets.front()). With a pool,
  /// disjoint row ranges are updated in parallel (bit-exact at any thread
  /// count: each table row is written by exactly one thread).
  ///
  /// Non-const: the row grouping and the serial accumulator are instance
  /// scratch, rebuilt in place each call so the steady state allocates
  /// nothing. One SparseSgd therefore serves one training thread; the
  /// intra-step pool parallelism is unaffected (pooled paths keep
  /// per-task accumulators).
  /// With a filter, rows it vetoes are skipped entirely (no staging, no
  /// scatter, no write — the row freezes verbatim) and every applied
  /// update is measured and reported back; the arithmetic for non-vetoed
  /// rows is bit-identical to the filterless call.
  void FusedBackwardStep(EmbeddingTable& table, const Tensor& grad_out,
                         std::span<const uint32_t> indices,
                         std::span<const uint32_t> offsets,
                         ThreadPool* pool = nullptr,
                         RowUpdateFilter* filter = nullptr);

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

 private:
  float lr_;
  RowGroups rg_;              // reused across FusedBackwardStep calls
  std::vector<float> acc_;    // serial-path accumulation scratch
  std::vector<uint8_t> skip_;  // per-row filter verdicts, reused per call
};

}  // namespace fae

#endif  // FAE_EMBEDDING_SPARSE_SGD_H_
