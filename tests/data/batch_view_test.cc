#include "data/batch_view.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic.h"

namespace fae {
namespace {

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

/// A batch view over a gathered flat dataset must describe exactly the
/// samples `ids` of `source`, in order, modulo the CSR offset base (views
/// carry dataset-absolute offsets; kernels rebase on offsets.front(), so
/// only the differences matter).
void ExpectViewOf(const BatchView& view, const FlatDataset& source,
                  std::span<const uint64_t> ids) {
  ASSERT_EQ(view.batch_size(), ids.size());
  uint64_t lookups = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(view.labels[i], source.label(ids[i]));
    for (size_t d = 0; d < view.dense.cols; ++d) {
      EXPECT_EQ(view.dense(i, d), source.dense_row(ids[i])[d]);
    }
    lookups += source.NumLookups(ids[i]);
  }
  EXPECT_EQ(view.TotalLookups(), lookups);
  for (size_t t = 0; t < view.num_tables(); ++t) {
    const std::span<const uint32_t> vo = view.offsets(t);
    ASSERT_EQ(vo.size(), ids.size() + 1);
    for (size_t i = 0; i < ids.size(); ++i) {
      const std::span<const uint32_t> got =
          view.indices(t).subspan(vo[i] - vo.front(), vo[i + 1] - vo[i]);
      EXPECT_TRUE(std::ranges::equal(got, source.lookups(t, ids[i])));
    }
  }
}

TEST(BatchViewTest, ViewsMatchAssembledBatches) {
  const DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  const Dataset dataset =
      SyntheticGenerator(schema, {.seed = 11}).Generate(100);
  const std::vector<uint64_t> ids = Iota(100);

  const FlatDataset gathered = dataset.flat().Gather(ids);
  const std::vector<BatchView> views =
      MakeBatchViews(gathered, /*batch_size=*/32, /*hot=*/false);

  ASSERT_EQ(views.size(), 4u);  // 32+32+32+4: the partial tail is kept
  EXPECT_EQ(views.back().batch_size(), 4u);
  for (size_t b = 0; b < views.size(); ++b) {
    ExpectViewOf(views[b], dataset.flat(),
                 std::span<const uint64_t>(ids).subspan(
                     b * 32, views[b].batch_size()));
  }
}

TEST(BatchViewTest, ViewsMatchPermutedAssembly) {
  const DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  const Dataset dataset =
      SyntheticGenerator(schema, {.seed = 13}).Generate(64);
  // A shuffled epoch order: gather once, then view.
  std::vector<uint64_t> ids = {5, 63, 0, 17, 17, 2, 40, 31};
  const FlatDataset gathered = dataset.flat().Gather(ids);
  const std::vector<BatchView> views =
      MakeBatchViews(gathered, /*batch_size=*/3, /*hot=*/true);
  ASSERT_EQ(views.size(), 3u);  // 3+3+2
  for (size_t b = 0; b < views.size(); ++b) {
    EXPECT_TRUE(views[b].hot);
    ExpectViewOf(views[b], dataset.flat(),
                 std::span<const uint64_t>(ids).subspan(
                     b * 3, views[b].batch_size()));
  }
}

TEST(BatchViewTest, ViewIsZeroCopy) {
  const DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  const Dataset dataset =
      SyntheticGenerator(schema, {.seed = 19}).Generate(32);
  const FlatDataset& flat = dataset.flat();
  const BatchView view = MakeBatchView(flat, 8, 24, /*hot=*/false);
  EXPECT_EQ(view.dense.data, flat.dense_row(8));
  EXPECT_EQ(view.labels.data(), flat.labels().data() + 8);
  for (size_t t = 0; t < view.num_tables(); ++t) {
    EXPECT_EQ(view.offsets(t).data(), flat.offsets(t).data() + 8);
    EXPECT_EQ(view.indices(t).data(),
              flat.indices(t).data() + flat.offsets(t)[8]);
  }
}

}  // namespace
}  // namespace fae
