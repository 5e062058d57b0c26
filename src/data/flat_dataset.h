#ifndef FAE_DATA_FLAT_DATASET_H_
#define FAE_DATA_FLAT_DATASET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/schema.h"
#include "util/logging.h"

namespace fae {

/// Structure-of-arrays dataset storage: one contiguous dense matrix, one
/// contiguous per-table lookup buffer with CSR offsets, and a contiguous
/// label array. Every static FAE pass (Embedding Logger §III-A2, Input
/// Processor §III-B) and every training epoch walks the whole dataset, so
/// the layout matters more than anything the kernels do per element: a
/// per-sample vector of vectors costs a pointer chase and a heap
/// allocation per table per sample, while this layout streams linearly.
///
/// Sample i's lookups in table t are
///   indices(t)[offsets(t)[i] .. offsets(t)[i + 1])
/// which also makes per-sample lookup counts O(1).
class FlatDataset {
 public:
  FlatDataset() = default;

  /// Empty dataset ready for streaming appends (loaders and generators
  /// build the flat buffers directly; nothing is materialized per sample
  /// on the way in).
  explicit FlatDataset(DatasetSchema schema);

  /// Adopts finished columns without copying them (the dataset loader reads
  /// each one straight into its final vector). Every `offsets[t]` must hold
  /// n + 1 entries, start at 0, never decrease and end at
  /// `indices[t].size()`; the caller checks the values, this checks the
  /// shapes.
  static FlatDataset FromColumns(DatasetSchema schema,
                                 std::vector<float> dense,
                                 std::vector<float> labels,
                                 std::vector<std::vector<uint32_t>> offsets,
                                 std::vector<std::vector<uint32_t>> indices);

  // --- Streaming builder -------------------------------------------------
  // Per sample, call in order: AppendDense (num_dense times), AppendLookup
  // (grouped by ascending table), then FinishSample. The order matches how
  // loaders and the synthetic generator naturally produce values, so no
  // intermediate buffer is needed.

  void AppendDense(float v) { dense_.push_back(v); }

  void AppendLookup(size_t table, uint32_t row) {
    FAE_CHECK_LT(indices_[table].size(),
                 static_cast<size_t>(UINT32_MAX));  // CSR offsets are u32
    indices_[table].push_back(row);
  }

  void FinishSample(float label);

  /// Lookups appended to table t for the sample under construction (i.e.
  /// since the last FinishSample). Lets generators read back what they just
  /// appended — e.g. to fold a label score over the sample's rows — without
  /// a side buffer.
  std::span<const uint32_t> PendingLookups(size_t t) const {
    const uint32_t b = offsets_[t].back();
    return std::span<const uint32_t>(indices_[t].data() + b,
                                     indices_[t].size() - b);
  }

  /// Reserves buffers for `num_samples` with `lookups_per_table[t]` total
  /// lookups (optional; appends work without it).
  void Reserve(size_t num_samples,
               const std::vector<size_t>& lookups_per_table);

  // --- Accessors ---------------------------------------------------------

  const DatasetSchema& schema() const { return schema_; }
  size_t size() const { return labels_.size(); }

  const float* dense_row(size_t i) const {
    return dense_.data() + i * schema_.num_dense;
  }
  std::span<const float> dense_data() const { return dense_; }
  std::span<const float> labels() const { return labels_; }
  float label(size_t i) const { return labels_[i]; }

  /// All of table t's lookups, concatenated in sample order.
  std::span<const uint32_t> indices(size_t t) const { return indices_[t]; }
  /// Mutable view of table t's lookups, for in-place row remapping (the
  /// replicator's master->slot translation). Shape is fixed; only the row
  /// values may change.
  std::span<uint32_t> mutable_indices(size_t t) { return indices_[t]; }
  /// size()+1 CSR offsets into indices(t).
  std::span<const uint32_t> offsets(size_t t) const { return offsets_[t]; }

  /// Sample i's lookups in table t (zero-copy).
  std::span<const uint32_t> lookups(size_t t, size_t i) const {
    const uint32_t b = offsets_[t][i];
    const uint32_t e = offsets_[t][i + 1];
    return std::span<const uint32_t>(indices_[t].data() + b, e - b);
  }

  /// Embedding lookups of sample i across all tables — O(num_tables), no
  /// per-table vector walk (the offsets difference is the count).
  uint64_t NumLookups(size_t i) const;

  /// Total lookups across the dataset; cached, O(1).
  uint64_t total_lookups() const { return total_lookups_; }

  /// Copies the samples at `ids` (in order) into a new FlatDataset — the
  /// once-per-run permutation that replaces per-batch assembly: batches
  /// then become contiguous views into the gathered buffers.
  FlatDataset Gather(std::span<const uint64_t> ids) const;

  /// Gather into a reusable workspace: every destination buffer is resized
  /// to exactly the gathered shape and overwritten front to back, so a
  /// workspace cycled through batches of different sizes never leaks stale
  /// samples from a previous fill (capacity is retained — after warm-up a
  /// prefetch workspace performs no heap allocations). `out`'s schema is
  /// reset to this dataset's. Views into `out` from a previous fill are
  /// invalidated. Self-gather (`out == this`) is not supported.
  void GatherInto(std::span<const uint64_t> ids, FlatDataset* out) const;

 private:
  DatasetSchema schema_;
  std::vector<float> dense_;                   // [n * num_dense]
  std::vector<float> labels_;                  // [n]
  std::vector<std::vector<uint32_t>> indices_; // per table, all lookups
  std::vector<std::vector<uint32_t>> offsets_; // per table, n + 1 entries
  uint64_t total_lookups_ = 0;
};

}  // namespace fae

#endif  // FAE_DATA_FLAT_DATASET_H_
