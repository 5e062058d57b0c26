#include "embedding/embedding_bag.h"

#include <algorithm>

#include "util/logging.h"

namespace fae {
namespace {

/// Below this many output rows the pool dispatch costs more than the
/// pooling itself.
constexpr size_t kMinRowsToParallelize = 64;

}  // namespace

void RowGroups::Rebuild(std::span<const uint32_t> indices,
                        std::span<const uint32_t> offsets) {
  FAE_CHECK_GE(offsets.size(), 1u);
  const uint32_t base = offsets.front();
  FAE_CHECK_EQ(offsets.back() - base, indices.size());
  const size_t nnz = indices.size();
  row_ids.clear();
  if (nnz == 0) {
    group_start.assign(1, 0);
    positions.clear();
    sample_of.clear();
    return;
  }
  group_start.clear();

  sample_of.resize(nnz);
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    for (uint32_t p = offsets[i] - base; p < offsets[i + 1] - base; ++p) {
      sample_of[p] = static_cast<uint32_t>(i);
    }
  }

  // Stable LSD radix sort of lookup positions keyed by destination row,
  // 8 bits per pass, skipping passes above the largest id. Stability keeps
  // positions with equal row ids in traversal order, which fixes each
  // row's accumulation order independently of how consumers partition the
  // slots. This replaces a comparison sort plus one binary search per
  // lookup; at training batch sizes the grouping was the dominant serial
  // cost of the fused backward+optimizer pass.
  uint32_t max_id = 0;
  for (uint32_t id : indices) max_id = std::max(max_id, id);
  positions.resize(nnz);
  for (size_t p = 0; p < nnz; ++p) {
    positions[p] = static_cast<uint32_t>(p);
  }
  scratch_.resize(nnz);
  // At most four passes: a shift of 32 would be undefined, and on x86 it
  // shifts by 0, so ids of 2^24 and more would never end the loop.
  for (int shift = 0; shift < 32 && (shift == 0 || (max_id >> shift) != 0);
       shift += 8) {
    uint32_t count[256] = {0};
    for (size_t p = 0; p < nnz; ++p) {
      ++count[(indices[positions[p]] >> shift) & 0xFF];
    }
    uint32_t start = 0;
    uint32_t bucket_start[256];
    for (size_t d = 0; d < 256; ++d) {
      bucket_start[d] = start;
      start += count[d];
    }
    for (size_t p = 0; p < nnz; ++p) {
      const uint32_t pos = positions[p];
      scratch_[bucket_start[(indices[pos] >> shift) & 0xFF]++] = pos;
    }
    positions.swap(scratch_);
  }

  // One scan over the sorted positions emits the unique row ids and their
  // group boundaries.
  row_ids.reserve(nnz);
  group_start.reserve(nnz + 1);
  for (size_t g = 0; g < nnz; ++g) {
    const uint32_t id = indices[positions[g]];
    if (row_ids.empty() || row_ids.back() != id) {
      row_ids.push_back(id);
      group_start.push_back(static_cast<uint32_t>(g));
    }
  }
  group_start.push_back(static_cast<uint32_t>(nnz));
}

void EmbeddingBag::ForwardInto(Tensor& out, const EmbeddingTable& table,
                               std::span<const uint32_t> indices,
                               std::span<const uint32_t> offsets,
                               ThreadPool* pool) {
  FAE_CHECK_GE(offsets.size(), 1u);
  const uint32_t base = offsets.front();
  FAE_CHECK_EQ(offsets.back() - base, indices.size());
  const size_t b = offsets.size() - 1;
  const size_t dim = table.dim();
  out.Resize(b, dim);
  out.SetZero();
  auto pool_range = [&](size_t b0, size_t b1) {
    for (size_t i = b0; i < b1; ++i) {
      float* orow = out.row(i);
      for (uint32_t p = offsets[i] - base; p < offsets[i + 1] - base; ++p) {
        // Plain tables take the fp32 Add fast path; compressed tables
        // dequantize cold rows on the fly (read-only, pool-safe).
        table.AddRowTo(indices[p], orow);
      }
    }
  };
  if (pool != nullptr && b >= kMinRowsToParallelize) {
    pool->ParallelFor(b, pool_range);
  } else {
    pool_range(0, b);
  }
}

}  // namespace fae
