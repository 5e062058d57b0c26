#include "embedding/embedding_bag.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "util/logging.h"

namespace fae {
namespace {

/// Below this many touched rows the pool dispatch costs more than the
/// scatter itself.
constexpr size_t kMinRowsToParallelize = 64;

}  // namespace

const float* SparseGrad::Find(uint64_t id) const {
  auto it = std::lower_bound(row_ids.begin(), row_ids.end(), id);
  if (it == row_ids.end() || *it != id) return nullptr;
  return row(static_cast<size_t>(it - row_ids.begin()));
}

float* SparseGrad::Find(uint64_t id) {
  return const_cast<float*>(
      static_cast<const SparseGrad*>(this)->Find(id));
}

float* SparseGrad::Upsert(uint64_t id) {
  auto it = std::lower_bound(row_ids.begin(), row_ids.end(), id);
  const size_t slot = static_cast<size_t>(it - row_ids.begin());
  if (it == row_ids.end() || *it != id) {
    row_ids.insert(it, id);
    values.insert(values.begin() + slot * dim, dim, 0.0f);
  }
  return row(slot);
}

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
  for (int shift = 0; shift == 0 || (max_id >> shift) != 0; shift += 8) {
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

RowGroups RowGroups::Build(std::span<const uint32_t> indices,
                           std::span<const uint32_t> offsets) {
  RowGroups rg;
  rg.Rebuild(indices, offsets);
  return rg;
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

SparseGrad EmbeddingBag::Backward(const Tensor& grad_out,
                                  std::span<const uint32_t> indices,
                                  std::span<const uint32_t> offsets,
                                  size_t dim, ThreadPool* pool) {
  FAE_CHECK_EQ(grad_out.cols(), dim);
  FAE_CHECK_EQ(grad_out.rows() + 1, offsets.size());
  SparseGrad grad;
  grad.dim = dim;
  if (indices.empty()) return grad;

  RowGroups rg = RowGroups::Build(indices, offsets);
  const size_t rows = rg.num_rows();
  grad.row_ids = std::move(rg.row_ids);
  grad.values.assign(rows * dim, 0.0f);

  auto scatter = [&](size_t s0, size_t s1) {
    for (size_t s = s0; s < s1; ++s) {
      float* acc = grad.row(s);
      for (uint32_t g = rg.group_start[s]; g < rg.group_start[s + 1]; ++g) {
        kernels::Add(dim, grad_out.row(rg.sample_of[rg.positions[g]]), acc);
      }
    }
  };
  if (pool != nullptr && rows >= kMinRowsToParallelize) {
    pool->ParallelFor(rows, scatter);
  } else {
    scatter(0, rows);
  }
  return grad;
}

}  // namespace fae
