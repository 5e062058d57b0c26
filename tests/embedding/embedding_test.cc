#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/embedding_bag.h"
#include "embedding/embedding_table.h"
#include "embedding/sparse_sgd.h"
#include "materialized_step.h"
#include "util/thread_pool.h"

namespace fae {
namespace {

TEST(EmbeddingTableTest, InitializationBound) {
  Xoshiro256 rng(1);
  EmbeddingTable table(100, 8, rng);
  const float bound = 1.0f / std::sqrt(100.0f);
  for (uint64_t r = 0; r < table.rows(); ++r) {
    for (size_t k = 0; k < table.dim(); ++k) {
      EXPECT_LE(std::fabs(table.row(r)[k]), bound);
    }
  }
}

TEST(EmbeddingTableTest, SizeBytes) {
  Xoshiro256 rng(2);
  EmbeddingTable table(1000, 16, rng);
  EXPECT_EQ(table.SizeBytes(), 1000u * 16 * 4);
}

TEST(EmbeddingTableTest, ZeroInitializedVariant) {
  EmbeddingTable table(10, 4);
  for (uint64_t r = 0; r < 10; ++r) {
    for (size_t k = 0; k < 4; ++k) EXPECT_EQ(table.row(r)[k], 0.0f);
  }
}

TEST(EmbeddingTableTest, CopyRowFrom) {
  Xoshiro256 rng(3);
  EmbeddingTable src(5, 4, rng);
  EmbeddingTable dst(3, 4);
  dst.CopyRowFrom(src, 2, 1);
  for (size_t k = 0; k < 4; ++k) EXPECT_EQ(dst.row(1)[k], src.row(2)[k]);
}

TEST(EmbeddingTableDeathTest, OutOfRangeRowAborts) {
  Xoshiro256 rng(4);
  EmbeddingTable table(5, 4, rng);
  EXPECT_DEATH(table.row(5), "Check failed");
}

TEST(EmbeddingBagTest, SingleLookupReturnsRow) {
  Xoshiro256 rng(5);
  EmbeddingTable table(10, 4, rng);
  const std::vector<uint32_t> idx = {3}, off = {0, 1};
  Tensor out;
  EmbeddingBag::ForwardInto(out, table, idx, off);
  for (size_t k = 0; k < 4; ++k) EXPECT_EQ(out(0, k), table.row(3)[k]);
}

TEST(EmbeddingBagTest, SumPoolsMultipleLookups) {
  Xoshiro256 rng(6);
  EmbeddingTable table(10, 4, rng);
  const std::vector<uint32_t> idx = {1, 2, 5}, off = {0, 3};
  Tensor out;
  EmbeddingBag::ForwardInto(out, table, idx, off);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(out(0, k),
                table.row(1)[k] + table.row(2)[k] + table.row(5)[k], 1e-6f);
  }
}

TEST(EmbeddingBagTest, EmptyBagYieldsZeros) {
  Xoshiro256 rng(7);
  EmbeddingTable table(10, 4, rng);
  const std::vector<uint32_t> idx, off = {0, 0};
  Tensor out;
  EmbeddingBag::ForwardInto(out, table, idx, off);
  for (size_t k = 0; k < 4; ++k) EXPECT_EQ(out(0, k), 0.0f);
}

TEST(EmbeddingBagTest, BatchedOffsets) {
  Xoshiro256 rng(8);
  EmbeddingTable table(10, 2, rng);
  // Sample 0: rows {0,1}; sample 1: row {2}.
  const std::vector<uint32_t> idx = {0, 1, 2}, off = {0, 2, 3};
  Tensor out;
  EmbeddingBag::ForwardInto(out, table, idx, off);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_NEAR(out(0, 0), table.row(0)[0] + table.row(1)[0], 1e-6f);
  EXPECT_NEAR(out(1, 0), table.row(2)[0], 1e-6f);
}

// The backward scatter's reference (tests/materialized_step.h): the same
// sums, in the same order, that the fused step applies.
TEST(EmbeddingBagTest, BackwardScattersGradients) {
  Tensor grad(2, 2, {1, 2, 3, 4});
  // Sample 0 -> rows {5, 7}; sample 1 -> row {5} (row 5 accumulates).
  const std::vector<uint32_t> idx = {5, 7, 5}, off = {0, 2, 3};
  const test::RowGrad g = test::ScatterRows(grad, idx, off);
  EXPECT_EQ(g.num_rows(), 2u);
  ASSERT_NE(g.Find(5), nullptr);
  ASSERT_NE(g.Find(7), nullptr);
  EXPECT_FLOAT_EQ(g.Find(5)[0], 1 + 3);
  EXPECT_FLOAT_EQ(g.Find(5)[1], 2 + 4);
  EXPECT_FLOAT_EQ(g.Find(7)[0], 1);
  EXPECT_EQ(g.Find(6), nullptr);
}

TEST(EmbeddingBagTest, BackwardRowIdsSortedUnique) {
  Tensor grad(3, 2, {1, 1, 2, 2, 3, 3});
  const std::vector<uint32_t> idx = {9, 1, 4, 1, 9}, off = {0, 2, 4, 5};
  const test::RowGrad g = test::ScatterRows(grad, idx, off);
  ASSERT_EQ(g.num_rows(), 3u);
  EXPECT_EQ(g.row_ids[0], 1u);
  EXPECT_EQ(g.row_ids[1], 4u);
  EXPECT_EQ(g.row_ids[2], 9u);
  EXPECT_TRUE(std::is_sorted(g.row_ids.begin(), g.row_ids.end()));
}

TEST(EmbeddingBagTest, RepeatedIndexWithinSampleCountsTwice) {
  Tensor grad(1, 2, {1, 1});
  const std::vector<uint32_t> idx = {3, 3}, off = {0, 2};
  const test::RowGrad g = test::ScatterRows(grad, idx, off);
  EXPECT_FLOAT_EQ(g.Find(3)[0], 2.0f);
}

TEST(EmbeddingBagTest, ParallelForwardBitExact) {
  Xoshiro256 rng(42);
  EmbeddingTable table(512, 8, rng);
  // Enough samples to cross the parallelization threshold.
  std::vector<uint32_t> indices;
  std::vector<uint32_t> offsets = {0};
  for (size_t i = 0; i < 300; ++i) {
    for (int j = 0; j < 3; ++j) {
      indices.push_back(static_cast<uint32_t>(rng.NextBounded(512)));
    }
    offsets.push_back(static_cast<uint32_t>(indices.size()));
  }

  ThreadPool pool(4);
  Tensor fwd_serial;
  EmbeddingBag::ForwardInto(fwd_serial, table, indices, offsets);
  Tensor fwd_parallel;
  EmbeddingBag::ForwardInto(fwd_parallel, table, indices, offsets, &pool);
  ASSERT_EQ(fwd_serial.numel(), fwd_parallel.numel());
  for (size_t i = 0; i < fwd_serial.numel(); ++i) {
    EXPECT_EQ(fwd_serial.data()[i], fwd_parallel.data()[i]);
  }
}

TEST(EmbeddingBagTest, ForwardBackwardGradientCheck) {
  Xoshiro256 rng(9);
  EmbeddingTable table(6, 3, rng);
  const std::vector<uint32_t> indices = {0, 2, 2, 4};
  const std::vector<uint32_t> offsets = {0, 2, 4};
  Tensor grad_out = Tensor::Randn(2, 3, 1.0f, rng);

  auto loss = [&]() {
    Tensor out;
    EmbeddingBag::ForwardInto(out, table, indices, offsets);
    double l = 0;
    for (size_t i = 0; i < out.numel(); ++i) {
      l += out.data()[i] * grad_out.data()[i];
    }
    return l;
  };

  const test::RowGrad g = test::ScatterRows(grad_out, indices, offsets);
  const float eps = 1e-3f;
  for (size_t s = 0; s < g.num_rows(); ++s) {
    const uint64_t row = g.row_ids[s];
    for (size_t k = 0; k < 3; ++k) {
      const float orig = table.row(row)[k];
      table.row(row)[k] = orig + eps;
      const double lp = loss();
      table.row(row)[k] = orig - eps;
      const double lm = loss();
      table.row(row)[k] = orig;
      EXPECT_NEAR(g.row(s)[k], (lp - lm) / (2 * eps), 1e-2);
    }
  }
}

/// The grouping RowGroups must produce, by a scalar walk: every id's
/// positions in traversal order, ids ascending.
void ExpectGroupsMatchScalarWalk(const RowGroups& rg,
                                 const std::vector<uint32_t>& indices,
                                 const std::vector<uint32_t>& offsets) {
  const uint32_t base = offsets.front();
  std::map<uint32_t, std::vector<uint32_t>> by_row;
  std::vector<uint32_t> sample_of(indices.size());
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    for (uint32_t p = offsets[i] - base; p < offsets[i + 1] - base; ++p) {
      by_row[indices[p]].push_back(p);
      sample_of[p] = static_cast<uint32_t>(i);
    }
  }
  std::vector<uint64_t> row_ids;
  std::vector<uint32_t> group_start = {0};
  std::vector<uint32_t> positions;
  for (const auto& [row, ps] : by_row) {
    row_ids.push_back(row);
    positions.insert(positions.end(), ps.begin(), ps.end());
    group_start.push_back(static_cast<uint32_t>(positions.size()));
  }
  EXPECT_EQ(rg.row_ids, row_ids);
  EXPECT_EQ(rg.group_start, group_start);
  EXPECT_EQ(rg.positions, positions);
  EXPECT_EQ(rg.sample_of, sample_of);
}

TEST(RowGroupsTest, RowIdsSortedUnique) {
  const std::vector<uint32_t> idx = {9, 1, 4, 1, 9}, off = {0, 2, 4, 5};
  RowGroups rg;
  rg.Rebuild(idx, off);
  EXPECT_EQ(rg.row_ids, (std::vector<uint64_t>{1, 4, 9}));
  EXPECT_EQ(rg.group_start, (std::vector<uint32_t>{0, 2, 3, 5}));
  ExpectGroupsMatchScalarWalk(rg, idx, off);
}

TEST(RowGroupsTest, PositionsKeepTraversalOrderWithinGroup) {
  // Row 7 at positions 0, 2, 4 and row 3 at 1, 3, across two samples.
  const std::vector<uint32_t> idx = {7, 3, 7, 3, 7}, off = {0, 2, 5};
  RowGroups rg;
  rg.Rebuild(idx, off);
  EXPECT_EQ(rg.row_ids, (std::vector<uint64_t>{3, 7}));
  EXPECT_EQ(rg.positions, (std::vector<uint32_t>{1, 3, 0, 2, 4}));
  ExpectGroupsMatchScalarWalk(rg, idx, off);
}

TEST(RowGroupsTest, SampleOfMapsPositionsToSamples) {
  // Sample 1 has no lookups.
  const std::vector<uint32_t> idx = {4, 2, 2, 8, 4}, off = {0, 2, 2, 5};
  RowGroups rg;
  rg.Rebuild(idx, off);
  EXPECT_EQ(rg.sample_of, (std::vector<uint32_t>{0, 0, 2, 2, 2}));
  ExpectGroupsMatchScalarWalk(rg, idx, off);
}

TEST(RowGroupsTest, IndexRepeatedWithinOneSample) {
  const std::vector<uint32_t> idx = {3, 5, 3}, off = {0, 3};
  RowGroups rg;
  rg.Rebuild(idx, off);
  EXPECT_EQ(rg.row_ids, (std::vector<uint64_t>{3, 5}));
  EXPECT_EQ(rg.group_start, (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(rg.positions, (std::vector<uint32_t>{0, 2, 1}));
  EXPECT_EQ(rg.sample_of, (std::vector<uint32_t>{0, 0, 0}));
}

TEST(RowGroupsTest, OffsetsNeedNotStartAtZero) {
  // A batch view's offsets are absolute positions in its dataset.
  const std::vector<uint32_t> idx = {6, 2, 6, 1, 2};
  const std::vector<uint32_t> zero_based = {0, 2, 3, 5};
  const std::vector<uint32_t> absolute = {100, 102, 103, 105};
  RowGroups want, got;
  want.Rebuild(idx, zero_based);
  got.Rebuild(idx, absolute);
  EXPECT_EQ(got.row_ids, want.row_ids);
  EXPECT_EQ(got.group_start, want.group_start);
  EXPECT_EQ(got.positions, want.positions);
  EXPECT_EQ(got.sample_of, want.sample_of);
  ExpectGroupsMatchScalarWalk(got, idx, absolute);
}

TEST(RowGroupsTest, EmptyBatch) {
  const std::vector<uint32_t> idx;
  for (const std::vector<uint32_t>& off :
       {std::vector<uint32_t>{0}, std::vector<uint32_t>{7, 7, 7}}) {
    RowGroups rg;
    rg.Rebuild(idx, off);
    EXPECT_EQ(rg.num_rows(), 0u);
    EXPECT_EQ(rg.group_start, (std::vector<uint32_t>{0}));
    EXPECT_TRUE(rg.positions.empty());
    EXPECT_TRUE(rg.sample_of.empty());
  }
}

TEST(RowGroupsTest, IdsPastOneRadixDigit) {
  // Ids of 2^8 and more need a second 8-bit pass, 2^16 and more a third
  // and 2^24 and more a fourth; ids equal in their low byte must still
  // group apart, each group in traversal order.
  const std::vector<uint32_t> idx = {
      (1u << 16) + 5, 256, 0, (1u << 24) + 256, 1, 256 + 1, (1u << 16) + 5,
      5, (1u << 16) + 256 + 5, 256, (1u << 24) + 256, 65535, 1u << 16};
  const std::vector<uint32_t> off = {0, 4, 9, 13};
  RowGroups rg;
  rg.Rebuild(idx, off);
  ExpectGroupsMatchScalarWalk(rg, idx, off);
  EXPECT_EQ(rg.num_rows(), 10u);
  EXPECT_EQ(rg.row_ids.back(), (1u << 24) + 256);

  Xoshiro256 rng(12);
  std::vector<uint32_t> wide(500);
  for (uint32_t& id : wide) {
    id = (static_cast<uint32_t>(rng.NextBounded(3)) << 17) |
         static_cast<uint32_t>(rng.NextBounded(40));
  }
  const std::vector<uint32_t> wide_off = {0, 123, 123, 400, 500};
  rg.Rebuild(wide, wide_off);
  ExpectGroupsMatchScalarWalk(rg, wide, wide_off);
}

TEST(RowGroupsTest, GrownInstanceRebuiltForSmallerBatch) {
  Xoshiro256 rng(13);
  std::vector<uint32_t> big(600);
  for (uint32_t& id : big) id = static_cast<uint32_t>(rng.NextBounded(70000));
  std::vector<uint32_t> big_off;
  for (uint32_t p = 0; p <= 600; p += 3) big_off.push_back(p);
  const std::vector<uint32_t> small = {8, 3, 8}, small_off = {0, 1, 3};

  RowGroups grown;
  grown.Rebuild(big, big_off);
  grown.Rebuild(small, small_off);
  RowGroups fresh;
  fresh.Rebuild(small, small_off);
  EXPECT_EQ(grown.row_ids, fresh.row_ids);
  EXPECT_EQ(grown.group_start, fresh.group_start);
  EXPECT_EQ(grown.positions, fresh.positions);
  EXPECT_EQ(grown.sample_of, fresh.sample_of);
  ExpectGroupsMatchScalarWalk(grown, small, small_off);
}

/// FusedBackwardStep's arithmetic by a scalar loop: every lookup's output
/// gradient added into its row's accumulator in traversal order, then
/// row + (-lr)*acc on each touched row (staged to fp32 first when cold).
void ScalarSgdStep(EmbeddingTable& table, const Tensor& grad_out,
                   const std::vector<uint32_t>& indices,
                   const std::vector<uint32_t>& offsets, float lr) {
  const size_t dim = table.dim();
  const uint32_t base = offsets.front();
  std::map<uint64_t, std::vector<float>> acc;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    for (uint32_t p = offsets[i] - base; p < offsets[i + 1] - base; ++p) {
      std::vector<float>& a = acc[indices[p]];
      a.resize(dim, 0.0f);
      for (size_t k = 0; k < dim; ++k) a[k] += grad_out(i, k);
    }
  }
  for (const auto& [id, a] : acc) {
    float* row = table.EnsureResidentRow(id);
    for (size_t k = 0; k < dim; ++k) row[k] = row[k] + (-lr) * a[k];
  }
}

/// FusedBackwardStep against ScalarSgdStep with memcmp, over a batch of
/// enough touched rows to take the pooled path: repeated rows within and
/// across samples, offsets not starting at zero, and rows 400..511 never
/// looked up.
void ExpectFusedStepMatchesScalarLoop(bool int8, ThreadPool* pool) {
  constexpr size_t kRows = 512, kDim = 8;
  Xoshiro256 rng(10);
  EmbeddingTable table(kRows, kDim, rng);
  if (int8) {
    std::vector<uint8_t> hot(kRows, 0);
    for (size_t r = 0; r < kRows; r += 4) hot[r] = 1;
    table.CompressCold(hot, ColdPrecision::kInt8);
  }
  std::vector<uint32_t> indices;
  std::vector<uint32_t> offsets = {7};
  for (size_t i = 0; i < 300; ++i) {
    for (int j = 0; j < 3; ++j) {
      indices.push_back(static_cast<uint32_t>(rng.NextBounded(400)));
    }
    if (i % 5 == 0) indices.push_back(indices[indices.size() - 3]);
    offsets.push_back(7 + static_cast<uint32_t>(indices.size()));
  }
  const Tensor grad_out = Tensor::Randn(300, kDim, 1.0f, rng);
  const EmbeddingTable before = table;
  EmbeddingTable want = table;

  SparseSgd sgd(0.05f);
  sgd.FusedBackwardStep(table, grad_out, indices, offsets, pool);
  ScalarSgdStep(want, grad_out, indices, offsets, 0.05f);

  std::vector<uint8_t> touched(kRows, 0);
  for (uint32_t id : indices) touched[id] = 1;
  size_t changed = 0;
  float got_row[kDim], want_row[kDim], before_row[kDim];
  for (uint64_t r = 0; r < kRows; ++r) {
    table.ReadRowInto(r, got_row);
    want.ReadRowInto(r, want_row);
    before.ReadRowInto(r, before_row);
    ASSERT_EQ(std::memcmp(got_row, want_row, sizeof(got_row)), 0)
        << "row " << r;
    if (touched[r] == 0) {
      ASSERT_EQ(std::memcmp(got_row, before_row, sizeof(got_row)), 0)
          << "untouched row " << r;
      ASSERT_EQ(table.RowResident(r), before.RowResident(r))
          << "untouched row " << r << " was staged";
    } else if (std::memcmp(got_row, before_row, sizeof(got_row)) != 0) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 64u);
}

TEST(SparseSgdTest, FusedStepMatchesScalarLoopFp32) {
  ExpectFusedStepMatchesScalarLoop(/*int8=*/false, nullptr);
}

TEST(SparseSgdTest, FusedStepMatchesScalarLoopFp32Pool4) {
  ThreadPool pool(4);
  ExpectFusedStepMatchesScalarLoop(/*int8=*/false, &pool);
}

TEST(SparseSgdTest, FusedStepMatchesScalarLoopInt8) {
  ExpectFusedStepMatchesScalarLoop(/*int8=*/true, nullptr);
}

TEST(SparseSgdTest, FusedStepMatchesScalarLoopInt8Pool4) {
  ThreadPool pool(4);
  ExpectFusedStepMatchesScalarLoop(/*int8=*/true, &pool);
}

}  // namespace
}  // namespace fae
