#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/embedding_bag.h"
#include "embedding/embedding_table.h"
#include "embedding/sparse_sgd.h"
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

TEST(EmbeddingBagTest, BackwardScattersGradients) {
  Tensor grad(2, 2, {1, 2, 3, 4});
  // Sample 0 -> rows {5, 7}; sample 1 -> row {5} (row 5 accumulates).
  const std::vector<uint32_t> idx = {5, 7, 5}, off = {0, 2, 3};
  SparseGrad g = EmbeddingBag::Backward(grad, idx, off, 2);
  EXPECT_EQ(g.num_rows(), 2u);
  ASSERT_NE(g.Find(5), nullptr);
  ASSERT_NE(g.Find(7), nullptr);
  EXPECT_FLOAT_EQ(g.Find(5)[0], 1 + 3);
  EXPECT_FLOAT_EQ(g.Find(5)[1], 2 + 4);
  EXPECT_FLOAT_EQ(g.Find(7)[0], 1);
  EXPECT_EQ(g.Find(6), nullptr);
  // Bytes covers the value buffer *and* the row-id index.
  EXPECT_EQ(g.Bytes(), 2u * 2 * sizeof(float) + 2u * sizeof(uint64_t));
}

TEST(EmbeddingBagTest, BackwardRowIdsSortedUnique) {
  Tensor grad(3, 2, {1, 1, 2, 2, 3, 3});
  const std::vector<uint32_t> idx = {9, 1, 4, 1, 9}, off = {0, 2, 4, 5};
  SparseGrad g = EmbeddingBag::Backward(grad, idx, off, 2);
  ASSERT_EQ(g.num_rows(), 3u);
  EXPECT_EQ(g.row_id(0), 1u);
  EXPECT_EQ(g.row_id(1), 4u);
  EXPECT_EQ(g.row_id(2), 9u);
  EXPECT_TRUE(std::is_sorted(g.row_ids.begin(), g.row_ids.end()));
}

TEST(EmbeddingBagTest, RepeatedIndexWithinSampleCountsTwice) {
  Tensor grad(1, 2, {1, 1});
  const std::vector<uint32_t> idx = {3, 3}, off = {0, 2};
  SparseGrad g = EmbeddingBag::Backward(grad, idx, off, 2);
  EXPECT_FLOAT_EQ(g.Find(3)[0], 2.0f);
}

TEST(EmbeddingBagTest, ParallelForwardAndBackwardBitExact) {
  Xoshiro256 rng(42);
  EmbeddingTable table(512, 8, rng);
  // Enough samples/rows to cross the parallelization thresholds.
  std::vector<uint32_t> indices;
  std::vector<uint32_t> offsets = {0};
  for (size_t i = 0; i < 300; ++i) {
    for (int j = 0; j < 3; ++j) {
      indices.push_back(static_cast<uint32_t>(rng.NextBounded(512)));
    }
    offsets.push_back(static_cast<uint32_t>(indices.size()));
  }
  Tensor grad_out = Tensor::Randn(300, 8, 1.0f, rng);

  ThreadPool pool(4);
  Tensor fwd_serial;
  EmbeddingBag::ForwardInto(fwd_serial, table, indices, offsets);
  Tensor fwd_parallel;
  EmbeddingBag::ForwardInto(fwd_parallel, table, indices, offsets, &pool);
  ASSERT_EQ(fwd_serial.numel(), fwd_parallel.numel());
  for (size_t i = 0; i < fwd_serial.numel(); ++i) {
    EXPECT_EQ(fwd_serial.data()[i], fwd_parallel.data()[i]);
  }

  SparseGrad bwd_serial = EmbeddingBag::Backward(grad_out, indices, offsets, 8);
  SparseGrad bwd_parallel =
      EmbeddingBag::Backward(grad_out, indices, offsets, 8, &pool);
  ASSERT_EQ(bwd_serial.row_ids, bwd_parallel.row_ids);
  ASSERT_EQ(bwd_serial.values.size(), bwd_parallel.values.size());
  for (size_t i = 0; i < bwd_serial.values.size(); ++i) {
    EXPECT_EQ(bwd_serial.values[i], bwd_parallel.values[i]);
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

  SparseGrad g = EmbeddingBag::Backward(grad_out, indices, offsets, 3);
  const float eps = 1e-3f;
  for (size_t s = 0; s < g.num_rows(); ++s) {
    const uint64_t row = g.row_id(s);
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

TEST(SparseSgdTest, UpdatesOnlyTouchedRows) {
  Xoshiro256 rng(10);
  EmbeddingTable table(4, 2, rng);
  const float before_r0 = table.row(0)[0];
  const float before_r2 = table.row(2)[0];
  SparseGrad g;
  g.dim = 2;
  float* gr = g.Upsert(2);
  gr[0] = 1.0f;
  gr[1] = 2.0f;
  SparseSgd sgd(0.5f);
  sgd.Step(table, g);
  EXPECT_EQ(table.row(0)[0], before_r0);
  EXPECT_FLOAT_EQ(table.row(2)[0], before_r2 - 0.5f);
}

}  // namespace
}  // namespace fae
