#include "data/flat_dataset.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic.h"

namespace fae {
namespace {

DatasetSchema TinySchema() {
  DatasetSchema s;
  s.name = "tiny";
  s.num_dense = 2;
  s.embedding_dim = 4;
  s.table_rows = {10, 20};
  return s;
}

/// Three samples built with the streaming builder; per-table lookups are
/// {{1, 2}, {3}}, {{}, {4, 5, 6}}, and {{7}, {8}}.
FlatDataset TinyFlat() {
  const float dense[3][2] = {{0.1f, 0.2f}, {0.3f, 0.4f}, {0.5f, 0.6f}};
  const std::vector<uint32_t> lookups[3][2] = {
      {{1, 2}, {3}}, {{}, {4, 5, 6}}, {{7}, {8}}};
  const float labels[3] = {1.0f, 0.0f, 1.0f};
  FlatDataset flat(TinySchema());
  for (size_t i = 0; i < 3; ++i) {
    for (float v : dense[i]) flat.AppendDense(v);
    for (size_t t = 0; t < 2; ++t) {
      for (uint32_t row : lookups[i][t]) flat.AppendLookup(t, row);
    }
    flat.FinishSample(labels[i]);
  }
  return flat;
}

TEST(FlatDatasetTest, CsrOffsetsAreConsistent) {
  const FlatDataset flat = TinyFlat();
  for (size_t t = 0; t < 2; ++t) {
    const std::span<const uint32_t> off = flat.offsets(t);
    ASSERT_EQ(off.size(), flat.size() + 1);
    EXPECT_EQ(off.front(), 0u);
    EXPECT_EQ(off.back(), flat.indices(t).size());
    for (size_t i = 0; i + 1 < off.size(); ++i) {
      EXPECT_LE(off[i], off[i + 1]);
    }
  }
}

TEST(FlatDatasetTest, LookupCountsAreCachedAndExact) {
  const FlatDataset flat = TinyFlat();
  EXPECT_EQ(flat.NumLookups(0), 3u);
  EXPECT_EQ(flat.NumLookups(1), 3u);
  EXPECT_EQ(flat.NumLookups(2), 2u);
  EXPECT_EQ(flat.total_lookups(), 8u);
}

TEST(FlatDatasetTest, PendingLookupsSeesCurrentSampleOnly) {
  FlatDataset flat(TinySchema());
  flat.AppendDense(0.0f);
  flat.AppendDense(0.0f);
  flat.AppendLookup(0, 5);
  flat.AppendLookup(0, 6);
  ASSERT_EQ(flat.PendingLookups(0).size(), 2u);
  EXPECT_EQ(flat.PendingLookups(0)[0], 5u);
  EXPECT_EQ(flat.PendingLookups(1).size(), 0u);
  flat.FinishSample(1.0f);
  EXPECT_EQ(flat.PendingLookups(0).size(), 0u);
}

TEST(FlatDatasetTest, GatherPermutesAndDuplicates) {
  const FlatDataset flat = TinyFlat();
  const std::vector<uint64_t> ids = {2, 0, 2};
  const FlatDataset g = flat.Gather(ids);
  ASSERT_EQ(g.size(), 3u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(g.label(i), flat.label(ids[i]));
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(g.dense_row(i)[d], flat.dense_row(ids[i])[d]);
    }
    for (size_t t = 0; t < 2; ++t) {
      EXPECT_TRUE(std::ranges::equal(g.lookups(t, i), flat.lookups(t, ids[i])));
    }
  }
  EXPECT_EQ(g.total_lookups(), 2u + 3u + 2u);  // samples 2, 0, 2
}

TEST(FlatDatasetTest, SyntheticGeneratorBuildsFlatDirectly) {
  const DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  const Dataset dataset = SyntheticGenerator(schema, {.seed = 7}).Generate(64);
  const FlatDataset& flat = dataset.flat();
  ASSERT_EQ(flat.size(), 64u);
  uint64_t lookups = 0;
  for (size_t i = 0; i < flat.size(); ++i) lookups += flat.NumLookups(i);
  EXPECT_EQ(lookups, flat.total_lookups());
  for (size_t t = 0; t < schema.num_tables(); ++t) {
    for (uint32_t row : flat.indices(t)) {
      EXPECT_LT(row, schema.table_rows[t]);
    }
  }
}

}  // namespace
}  // namespace fae
