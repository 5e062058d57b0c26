#include "data/dataset.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace fae {
namespace {

Dataset SmallDataset(size_t n = 200) {
  SyntheticGenerator gen(MakeTaobaoLikeSchema(DatasetScale::kTiny),
                         {.seed = 11});
  return gen.Generate(n);
}

TEST(DatasetTest, SplitFractions) {
  Dataset d = SmallDataset(100);
  Dataset::Split split = d.MakeSplit(0.2);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.front(), 0u);
  EXPECT_EQ(split.test.front(), 80u);
}

TEST(DatasetTest, SplitZeroTestFraction) {
  Dataset d = SmallDataset(50);
  Dataset::Split split = d.MakeSplit(0.0);
  EXPECT_EQ(split.train.size(), 50u);
  EXPECT_TRUE(split.test.empty());
}

TEST(DatasetTest, ProfileAllCountsEveryLookup) {
  Dataset d = SmallDataset(100);
  AccessProfile profile = d.ProfileAllAccesses();
  uint64_t lookups = 0;
  for (size_t i = 0; i < d.size(); ++i) lookups += d.flat().NumLookups(i);
  EXPECT_EQ(profile.grand_total(), lookups);
}

TEST(DatasetTest, PartialProfileMatchesSubset) {
  Dataset d = SmallDataset(100);
  std::vector<uint64_t> which = {0, 5, 10};
  AccessProfile profile = d.ProfileAccesses(which);
  uint64_t lookups = 0;
  for (uint64_t i : which) lookups += d.flat().NumLookups(i);
  EXPECT_EQ(profile.grand_total(), lookups);
}

}  // namespace
}  // namespace fae
