#ifndef FAE_DATA_BATCH_VIEW_H_
#define FAE_DATA_BATCH_VIEW_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "data/flat_dataset.h"
#include "tensor/tensor.h"

namespace fae {

/// One embedding table's slice of a batch: the concatenated lookup indices
/// plus B+1 CSR offsets. Offsets are *absolute* positions into the backing
/// FlatDataset's per-table index buffer, so a view built over samples
/// [begin, end) has offsets.front() == the dataset-level start, not 0.
/// Kernels rebase with `offsets.front()` (the relative-offset contract),
/// so zero-based buffers satisfy the same contract trivially.
struct TableView {
  std::span<const uint32_t> indices;
  std::span<const uint32_t> offsets;  // batch_size + 1 entries
};

/// A non-owning mini-batch: spans into a FlatDataset. Because batches are
/// consecutive sample ranges of the epoch's gathered dataset, building a
/// whole epoch of views copies nothing — epoch setup is O(num_batches)
/// span arithmetic instead of an O(dataset) reassembly.
///
/// Invariants:
///   - the view covers a contiguous sample range of its backing store;
///   - the backing store outlives every view into it (views into a
///     FlatDataset stay valid across moves of the dataset object, since
///     the underlying vector heap buffers do not move);
///   - a batch is entirely hot or entirely cold (paper §II-B(1)); `hot`
///     records which — mixed batches would stall the GPU on CPU-resident
///     embeddings.
struct BatchView {
  MatView dense;                  // [B, num_dense]
  std::span<const float> labels;  // [B]
  std::vector<TableView> tables;
  bool hot = false;
  /// Cached at construction — O(1), never recomputed in hot loops.
  uint64_t total_lookups = 0;

  size_t batch_size() const { return labels.size(); }
  size_t num_tables() const { return tables.size(); }
  std::span<const uint32_t> indices(size_t t) const {
    return tables[t].indices;
  }
  std::span<const uint32_t> offsets(size_t t) const {
    return tables[t].offsets;
  }

  /// Total embedding lookups across tables; cached, O(1).
  uint64_t TotalLookups() const { return total_lookups; }
};

/// Views samples [begin, end) of `flat` as one batch. Zero copies.
BatchView MakeBatchView(const FlatDataset& flat, size_t begin, size_t end,
                        bool hot);

/// Row-id extraction for the lookahead oracle: invokes fn(table, row) for
/// every embedding lookup of a staged batch view, in table-major sample
/// order — the exact reference sequence the trainer will issue, which is
/// what makes the oracle window exact rather than predictive.
void ForEachLookup(const BatchView& view,
                   const std::function<void(size_t, uint32_t)>& fn);

/// The same scan over samples `ids` of `flat` — the form the oracle uses
/// to see *past* the staging ring (the window may be deeper than the ring,
/// so it reads the CSR source directly instead of waiting for a slot).
void ForEachLookup(const FlatDataset& flat, std::span<const uint64_t> ids,
                   const std::function<void(size_t, uint32_t)>& fn);

/// Splits `flat` into consecutive batches of `batch_size` (last may be
/// smaller), all sharing `hot`. Zero copies.
std::vector<BatchView> MakeBatchViews(const FlatDataset& flat,
                                      size_t batch_size, bool hot);

}  // namespace fae

#endif  // FAE_DATA_BATCH_VIEW_H_
