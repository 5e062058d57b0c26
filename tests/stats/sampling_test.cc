#include "stats/sampling.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/random.h"

namespace fae {
namespace {

TEST(SamplingTest, BernoulliRateZeroAndOne) {
  Xoshiro256 rng(1);
  EXPECT_TRUE(BernoulliSampleIndices(1000, 0.0, rng).empty());
  auto all = BernoulliSampleIndices(1000, 1.0, rng);
  EXPECT_EQ(all.size(), 1000u);
}

TEST(SamplingTest, BernoulliHitsApproximateRate) {
  Xoshiro256 rng(2);
  auto s = BernoulliSampleIndices(200000, 0.05, rng);
  EXPECT_NEAR(static_cast<double>(s.size()), 10000.0, 600.0);
}

TEST(SamplingTest, BernoulliIndicesSortedAndUnique) {
  Xoshiro256 rng(3);
  auto s = BernoulliSampleIndices(10000, 0.1, rng);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_EQ(std::set<uint64_t>(s.begin(), s.end()).size(), s.size());
  for (uint64_t i : s) EXPECT_LT(i, 10000u);
}

TEST(SamplingTest, ChunkStartsRespectBounds) {
  Xoshiro256 rng(7);
  auto starts = RandomChunkStarts(100000, 1024, 35, rng);
  EXPECT_EQ(starts.size(), 35u);
  for (uint64_t s : starts) EXPECT_LE(s, 100000u - 1024u);
}

TEST(SamplingTest, ChunkStartsSmallTableReturnsSingleChunk) {
  Xoshiro256 rng(8);
  auto starts = RandomChunkStarts(512, 1024, 35, rng);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 0u);
}

TEST(SamplingTest, ChunkStartsTableEqualChunk) {
  Xoshiro256 rng(9);
  auto starts = RandomChunkStarts(1024, 1024, 35, rng);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 0u);
}

}  // namespace
}  // namespace fae
