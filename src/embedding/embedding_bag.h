#ifndef FAE_EMBEDDING_EMBEDDING_BAG_H_
#define FAE_EMBEDDING_EMBEDDING_BAG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "embedding/embedding_table.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fae {

/// Position-grouping of a CSR lookup list by destination row: the sorted
/// unique row ids plus, per row, the lookup positions that touch it in
/// traversal order. This is the index structure behind the fused
/// backward+optimizer (SparseSgd::FusedBackwardStep): group g owns
/// positions
///   positions[group_start[g] .. group_start[g+1])
/// all referring to row_ids[g], and `sample_of[p]` maps a position back to
/// the mini-batch sample whose output gradient it scatters.
///
/// Per-row accumulation order equals lookup-traversal order — exactly what
/// the scalar unordered_map implementation produced — so the scatter is
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

 private:
  std::vector<uint32_t> scratch_;  // radix-sort ping-pong buffer
};

/// Sum-pooled embedding lookup (PyTorch's EmbeddingBag with mode="sum").
///
/// A batch is expressed in CSR form: `indices` concatenates every lookup,
/// `offsets[i]..offsets[i+1]` delimit sample i's lookups (rebased by
/// `offsets.front()` — see the RowGroups contract). ForwardInto produces
/// [B, dim]; the backward scatter is fused with the optimizer in
/// SparseSgd::FusedBackwardStep.
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
};

}  // namespace fae

#endif  // FAE_EMBEDDING_EMBEDDING_BAG_H_
