#include "models/distinct_counter.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace fae {
namespace {

/// The sort + unique count DistinctCounter replaced in Dlrm/Tbsm::Work.
size_t SortUniqueCount(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return static_cast<size_t>(std::unique(ids.begin(), ids.end()) -
                             ids.begin());
}

TEST(DistinctCounterTest, MatchesSortUniqueOnRandomBatches) {
  // One counter reused across batches of changing sizes and id ranges, as
  // Work() reuses it across tables and batches: a smaller batch after a
  // larger one must not see the larger one's ids.
  DistinctCounter counter;
  Xoshiro256 rng(41);
  for (const size_t n : {1, 2, 3, 17, 1024, 5, 21504, 64, 1000}) {
    for (const uint64_t range : {uint64_t{1}, uint64_t{7}, uint64_t{1000},
                                 uint64_t{1} << 32}) {
      std::vector<uint32_t> ids(n);
      for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.NextBounded(range));
      EXPECT_EQ(counter.Count(ids), SortUniqueCount(ids))
          << "n " << n << " range " << range;
    }
  }
}

TEST(DistinctCounterTest, AllEqualAndAllDistinct) {
  DistinctCounter counter;
  for (const size_t n : {1, 2, 255, 256, 257, 4096}) {
    // All equal, including the largest id (the set's empty marker) and 0.
    for (const uint32_t v : {uint32_t{0}, uint32_t{42}, UINT32_MAX}) {
      const std::vector<uint32_t> same(n, v);
      EXPECT_EQ(counter.Count(same), 1u) << "n " << n << " value " << v;
    }
    // All distinct: consecutive ids (the popular low rows), a stride that
    // shares low bits, and a run ending at UINT32_MAX.
    std::vector<uint32_t> consecutive(n), strided(n), top(n);
    for (size_t i = 0; i < n; ++i) {
      consecutive[i] = static_cast<uint32_t>(i);
      strided[i] = static_cast<uint32_t>(i << 12);
      top[i] = UINT32_MAX - static_cast<uint32_t>(i);
    }
    EXPECT_EQ(counter.Count(consecutive), n);
    EXPECT_EQ(counter.Count(strided), n);
    EXPECT_EQ(counter.Count(top), n);
  }
  EXPECT_EQ(counter.Count({}), 0u);
}

}  // namespace
}  // namespace fae
