#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>

#include <gtest/gtest.h>

namespace fae {
namespace {

DatasetSchema TinyKaggle() {
  return MakeKaggleLikeSchema(DatasetScale::kTiny);
}

TEST(SyntheticTest, GeneratesRequestedCount) {
  SyntheticGenerator gen(TinyKaggle(), {});
  Dataset d = gen.Generate(500);
  EXPECT_EQ(d.size(), 500u);
}

TEST(SyntheticTest, SamplesMatchSchema) {
  DatasetSchema schema = TinyKaggle();
  SyntheticGenerator gen(schema, {});
  Dataset d = gen.Generate(100);
  const FlatDataset& flat = d.flat();
  EXPECT_EQ(flat.dense_data().size(), d.size() * schema.num_dense);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      const std::span<const uint32_t> l = flat.lookups(t, i);
      ASSERT_EQ(l.size(), 1u);  // DLRM: one lookup per table
      EXPECT_LT(l[0], schema.table_rows[t]);
    }
    EXPECT_TRUE(flat.label(i) == 0.0f || flat.label(i) == 1.0f);
  }
}

TEST(SyntheticTest, SequentialSchemaGetsHistories) {
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  SyntheticGenerator gen(schema, {});
  Dataset d = gen.Generate(300);
  size_t max_len = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    const size_t history = d.flat().lookups(0, i).size();
    ASSERT_GE(history, 1u);
    ASSERT_LE(history, schema.max_history);
    max_len = std::max(max_len, history);
    for (size_t t = 1; t < schema.num_tables(); ++t) {
      EXPECT_EQ(d.flat().lookups(t, i).size(), 1u);
    }
  }
  EXPECT_GT(max_len, 5u);  // histories actually vary
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticGenerator a(TinyKaggle(), {.seed = 9});
  SyntheticGenerator b(TinyKaggle(), {.seed = 9});
  Dataset da = a.Generate(50);
  Dataset db = b.Generate(50);
  for (size_t t = 0; t < da.schema().num_tables(); ++t) {
    EXPECT_TRUE(std::ranges::equal(da.flat().indices(t), db.flat().indices(t)));
  }
  EXPECT_TRUE(std::ranges::equal(da.flat().labels(), db.flat().labels()));
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticGenerator a(TinyKaggle(), {.seed = 1});
  SyntheticGenerator b(TinyKaggle(), {.seed = 2});
  Dataset da = a.Generate(50);
  Dataset db = b.Generate(50);
  size_t differing = 0;
  for (size_t i = 0; i < 50; ++i) {
    for (size_t t = 0; t < da.schema().num_tables(); ++t) {
      if (!std::ranges::equal(da.flat().lookups(t, i),
                              db.flat().lookups(t, i))) {
        ++differing;
        break;
      }
    }
  }
  EXPECT_GT(differing, 40u);
}

TEST(SyntheticTest, RankToRowIsBijective) {
  DatasetSchema schema = TinyKaggle();
  SyntheticGenerator gen(schema, {});
  for (size_t t : {size_t{0}, schema.num_tables() - 1}) {
    const uint64_t rows = schema.table_rows[t];
    std::set<uint64_t> seen;
    for (uint64_t rank = 0; rank < rows; ++rank) {
      const uint64_t row = gen.RankToRow(t, rank);
      EXPECT_LT(row, rows);
      seen.insert(row);
    }
    EXPECT_EQ(seen.size(), rows);
  }
}

TEST(SyntheticTest, HotRowsAreScatteredNotPrefix) {
  // The top-100 popularity ranks should not all map into the first 10% of
  // the table (the paper: hot entries are scattered).
  DatasetSchema schema = TinyKaggle();
  SyntheticGenerator gen(schema, {});
  const uint64_t rows = schema.table_rows[0];
  size_t in_prefix = 0;
  for (uint64_t rank = 0; rank < 100; ++rank) {
    if (gen.RankToRow(0, rank) < rows / 10) ++in_prefix;
  }
  EXPECT_LT(in_prefix, 50u);
}

TEST(SyntheticTest, AccessesAreSkewed) {
  DatasetSchema schema = TinyKaggle();
  SyntheticGenerator gen(schema, {.seed = 3, .zipf_exponent = 1.05});
  Dataset d = gen.Generate(5000);
  AccessProfile profile = d.ProfileAllAccesses();
  // Largest table: top 10% of entries should hold well over half the mass.
  EXPECT_GT(profile.TopShare(0, 0.10), 0.5);
}

TEST(SyntheticTest, LabelsCorrelateWithPlantedAffinity) {
  // Inputs whose lookups have high planted affinity should be labelled 1
  // more often than those with low affinity — i.e. the task is learnable.
  DatasetSchema schema = TinyKaggle();
  SyntheticGenerator gen(schema, {.seed = 4});
  Dataset d = gen.Generate(4000);
  double hi_sum = 0, hi_n = 0, lo_sum = 0, lo_n = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    double aff = 0;
    size_t lookups = 0;
    for (size_t t = 0; t < d.schema().num_tables(); ++t) {
      for (uint32_t row : d.flat().lookups(t, i)) {
        aff += gen.Affinity(t, row);
        ++lookups;
      }
    }
    aff /= std::sqrt(static_cast<double>(lookups));
    if (aff > 1.0) {
      hi_sum += d.flat().label(i);
      hi_n += 1;
    } else if (aff < -1.0) {
      lo_sum += d.flat().label(i);
      lo_n += 1;
    }
  }
  ASSERT_GT(hi_n, 50);
  ASSERT_GT(lo_n, 50);
  EXPECT_GT(hi_sum / hi_n, lo_sum / lo_n + 0.2);
}

TEST(SyntheticTest, ZeroDriftMatchesStaticMapping) {
  DatasetSchema schema = TinyKaggle();
  SyntheticGenerator gen(schema, {.seed = 6, .popularity_drift = 0.0});
  for (uint64_t rank : {0ull, 7ull, 123ull}) {
    EXPECT_EQ(gen.RankToRowAt(0, rank, 0.0), gen.RankToRowAt(0, rank, 1.0));
    EXPECT_EQ(gen.RankToRow(0, rank), gen.RankToRowAt(0, rank, 0.5));
  }
}

TEST(SyntheticTest, DriftRotatesHotSetOverDataset) {
  DatasetSchema schema = TinyKaggle();
  SyntheticGenerator gen(schema, {.seed = 6, .popularity_drift = 1.0});
  Dataset d = gen.Generate(8000);
  // Top rows of the largest table in the first vs last quarter of the
  // dataset should barely overlap under a full rotation.
  auto top_rows = [&](size_t begin, size_t end) {
    std::vector<uint64_t> ids;
    for (size_t i = begin; i < end; ++i) ids.push_back(i);
    AccessProfile p = d.ProfileAccesses(ids);
    std::vector<std::pair<uint64_t, uint64_t>> counted;
    const auto& counts = p.counts(0);
    for (uint64_t r = 0; r < counts.size(); ++r) {
      if (counts[r] > 0) counted.push_back({counts[r], r});
    }
    std::sort(counted.rbegin(), counted.rend());
    std::set<uint64_t> top;
    for (size_t i = 0; i < std::min<size_t>(50, counted.size()); ++i) {
      top.insert(counted[i].second);
    }
    return top;
  };
  std::set<uint64_t> early = top_rows(0, 2000);
  std::set<uint64_t> late = top_rows(6000, 8000);
  size_t overlap = 0;
  for (uint64_t r : early) overlap += late.count(r);
  EXPECT_LT(overlap, 15u);
}

TEST(SyntheticTest, DriftedLabelsRemainBalanced) {
  SyntheticGenerator gen(TinyKaggle(), {.seed = 7, .popularity_drift = 0.5});
  Dataset d = gen.Generate(2000);
  double positives = 0;
  for (size_t i = 0; i < d.size(); ++i) positives += d.flat().label(i);
  const double rate = positives / d.size();
  EXPECT_GT(rate, 0.2);
  EXPECT_LT(rate, 0.8);
}

TEST(SyntheticTest, LabelBalanceIsReasonable) {
  SyntheticGenerator gen(TinyKaggle(), {.seed = 5});
  Dataset d = gen.Generate(2000);
  double positives = 0;
  for (size_t i = 0; i < d.size(); ++i) positives += d.flat().label(i);
  const double rate = positives / d.size();
  EXPECT_GT(rate, 0.2);
  EXPECT_LT(rate, 0.8);
}

}  // namespace
}  // namespace fae
