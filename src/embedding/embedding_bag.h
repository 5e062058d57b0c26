#ifndef FAE_EMBEDDING_EMBEDDING_BAG_H_
#define FAE_EMBEDDING_EMBEDDING_BAG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "embedding/embedding_table.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fae {

/// Sparse gradient against one embedding table: the rows a mini-batch
/// touched and their gradient vectors. Only these rows pay optimizer and
/// synchronization costs, which is what makes the paper's hot/cold
/// bookkeeping worthwhile.
///
/// Flat layout: `row_ids` holds the touched rows sorted ascending (unique),
/// and `values` holds one contiguous dim-strided gradient vector per entry
/// of `row_ids`, in the same order. Compared to the historical
/// unordered_map<row, vector<float>>, this costs zero heap allocations per
/// touched row, iterates in a deterministic order, and exposes disjoint
/// slot ranges the optimizers can partition across threads with no write
/// conflicts (bit-exact results at any thread count).
struct SparseGrad {
  size_t dim = 0;
  /// Touched row ids, sorted ascending, no duplicates.
  std::vector<uint64_t> row_ids;
  /// row_ids.size() x dim gradient payload, row-major, parallel to
  /// `row_ids`.
  std::vector<float> values;

  uint64_t num_rows() const { return row_ids.size(); }
  bool empty() const { return row_ids.empty(); }

  uint64_t row_id(size_t slot) const { return row_ids[slot]; }
  float* row(size_t slot) { return values.data() + slot * dim; }
  const float* row(size_t slot) const { return values.data() + slot * dim; }

  /// Payload plus index bytes (the historical accounting omitted the
  /// index array).
  uint64_t Bytes() const {
    return values.size() * sizeof(float) +
           row_ids.size() * sizeof(uint64_t);
  }

  /// Gradient vector of `id`, or nullptr when the row was not touched.
  /// O(log rows) binary search.
  const float* Find(uint64_t id) const;
  float* Find(uint64_t id);

  /// Gradient vector of `id`, inserting a zero-filled row at its sorted
  /// position if absent. O(rows x dim) on insert — meant for tests and
  /// small hand-built gradients; bulk construction goes through
  /// EmbeddingBag::Backward / RowGroups.
  float* Upsert(uint64_t id);
};

/// Position-grouping of a CSR lookup list by destination row: the sorted
/// unique row ids plus, per row, the lookup positions that touch it in
/// traversal order. This is the shared index structure behind the flat
/// scatter (EmbeddingBag::Backward) and the fused backward+optimizer
/// paths: group g owns positions
///   positions[group_start[g] .. group_start[g+1])
/// all referring to row_ids[g], and `sample_of[p]` maps a position back to
/// the mini-batch sample whose output gradient it scatters.
///
/// Per-row accumulation order equals lookup-traversal order — exactly what
/// the scalar unordered_map implementation produced — so every consumer is
/// bit-exact with the historical kernels and across thread counts.
///
/// CSR contract (shared by every kernel below): `offsets` has B+1
/// monotone entries and `offsets.back() - offsets.front() ==
/// indices.size()`. Offsets need not start at zero — batch views into a
/// flat dataset carry the dataset-absolute offsets and kernels rebase by
/// `offsets.front()`; zero-based buffers satisfy the contract unchanged.
struct RowGroups {
  std::vector<uint64_t> row_ids;      // sorted ascending, unique
  std::vector<uint32_t> group_start;  // row_ids.size() + 1 entries
  std::vector<uint32_t> positions;    // lookup positions grouped by row
  std::vector<uint32_t> sample_of;    // sample index per lookup position

  size_t num_rows() const { return row_ids.size(); }

  /// Rebuilds the grouping in place, reusing all previously grown buffers
  /// (including the radix-sort scratch) — zero heap allocations once the
  /// instance has seen a batch of each size. This is what keeps the fused
  /// optimizer's steady state allocation-free.
  void Rebuild(std::span<const uint32_t> indices,
               std::span<const uint32_t> offsets);

  /// Builds the grouping for `indices`/`offsets` on a fresh instance.
  static RowGroups Build(std::span<const uint32_t> indices,
                         std::span<const uint32_t> offsets);

 private:
  std::vector<uint32_t> scratch_;  // radix-sort ping-pong buffer
};

/// Sum-pooled embedding lookup (PyTorch's EmbeddingBag with mode="sum").
///
/// A batch is expressed in CSR form: `indices` concatenates every lookup,
/// `offsets[i]..offsets[i+1]` delimit sample i's lookups (rebased by
/// `offsets.front()` — see the RowGroups contract). ForwardInto produces
/// [B, dim]; Backward scatters the output gradient into a SparseGrad.
class EmbeddingBag {
 public:
  /// Pools rows of `table` per sample into a caller-owned workspace
  /// (Resize'd to [B, dim]). With a pool, samples are partitioned across
  /// threads (each output row is written by one thread; bit-exact at any
  /// thread count).
  static void ForwardInto(Tensor& out, const EmbeddingTable& table,
                          std::span<const uint32_t> indices,
                          std::span<const uint32_t> offsets,
                          ThreadPool* pool = nullptr);

  /// Scatters dL/dout [B, dim] back onto the looked-up rows. With a pool,
  /// the scatter is partitioned over disjoint destination-row ranges.
  static SparseGrad Backward(const Tensor& grad_out,
                             std::span<const uint32_t> indices,
                             std::span<const uint32_t> offsets,
                             size_t dim, ThreadPool* pool = nullptr);
};

}  // namespace fae

#endif  // FAE_EMBEDDING_EMBEDDING_BAG_H_
