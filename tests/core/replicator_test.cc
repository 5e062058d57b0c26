#include "core/embedding_replicator.h"

#include <algorithm>
#include <span>

#include <gtest/gtest.h>

#include "core/input_processor.h"
#include "data/synthetic.h"

namespace fae {
namespace {

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 51}).Generate(2000)) {
    Xoshiro256 rng(3);
    for (uint64_t rows : schema.table_rows) {
      masters.emplace_back(rows, schema.embedding_dim, rng);
    }
    AccessProfile profile = dataset.ProfileAllAccesses();
    hot = EmbeddingClassifier::Classify(profile, schema, 4, 1 << 12);
  }

  DatasetSchema schema;
  Dataset dataset;
  std::vector<EmbeddingTable> masters;
  HotSet hot;
};

TEST(ReplicatorTest, ReplicaSizesMatchHotCounts) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  auto replicas = rep.replica_tables();
  ASSERT_EQ(replicas.size(), f.schema.num_tables());
  uint64_t bytes = 0;
  for (size_t t = 0; t < replicas.size(); ++t) {
    EXPECT_EQ(replicas[t]->rows(), f.hot.HotCount(t));
    EXPECT_EQ(replicas[t]->dim(), f.schema.embedding_dim);
    bytes += replicas[t]->SizeBytes();
  }
  EXPECT_EQ(rep.hot_bytes(), bytes);
  EXPECT_EQ(bytes, f.hot.HotBytes(f.schema.embedding_dim));
}

TEST(ReplicatorTest, SlotMappingIsInverse) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  for (size_t t = 0; t < f.schema.num_tables(); ++t) {
    const uint64_t hot_count = f.hot.HotCount(t);
    for (uint64_t slot = 0; slot < std::min<uint64_t>(hot_count, 50);
         ++slot) {
      const uint64_t row = rep.RowOf(t, slot);
      EXPECT_EQ(rep.SlotOf(t, row), static_cast<int64_t>(slot));
      EXPECT_TRUE(f.hot.IsHot(t, row));
    }
  }
}

TEST(ReplicatorTest, ColdRowsHaveNoSlot) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  for (size_t t = 0; t < f.schema.num_tables(); ++t) {
    if (f.hot.table_all_hot(t)) continue;
    for (uint64_t row = 0; row < std::min<uint64_t>(f.masters[t].rows(), 200);
         ++row) {
      if (!f.hot.IsHot(t, row)) {
        EXPECT_EQ(rep.SlotOf(t, row), -1);
      }
    }
  }
}

TEST(ReplicatorTest, PullCopiesHotRowsExactly) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  rep.PullFromMasters(f.masters);
  auto replicas = rep.replica_tables();
  for (size_t t = 0; t < replicas.size(); ++t) {
    for (uint64_t slot = 0;
         slot < std::min<uint64_t>(replicas[t]->rows(), 20); ++slot) {
      const uint64_t row = rep.RowOf(t, slot);
      for (size_t k = 0; k < f.schema.embedding_dim; ++k) {
        EXPECT_EQ(replicas[t]->row(slot)[k], f.masters[t].row(row)[k]);
      }
    }
  }
}

TEST(ReplicatorTest, PushRoundTripsUpdates) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  rep.PullFromMasters(f.masters);
  auto replicas = rep.replica_tables();
  // Mutate replica rows (as a hot training phase would).
  for (size_t t = 0; t < replicas.size(); ++t) {
    for (uint64_t slot = 0; slot < std::min<uint64_t>(replicas[t]->rows(), 5);
         ++slot) {
      replicas[t]->row(slot)[0] = 123.0f + static_cast<float>(slot);
    }
  }
  rep.PushToMasters(f.masters);
  for (size_t t = 0; t < replicas.size(); ++t) {
    for (uint64_t slot = 0; slot < std::min<uint64_t>(replicas[t]->rows(), 5);
         ++slot) {
      EXPECT_EQ(f.masters[t].row(rep.RowOf(t, slot))[0],
                123.0f + static_cast<float>(slot));
    }
  }
}

TEST(ReplicatorTest, TranslateRewritesHotBatch) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  InputProcessor proc(1);
  std::vector<uint64_t> all_ids(f.dataset.size());
  for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
  ProcessedInputs inputs = proc.Classify(f.dataset, f.hot, all_ids);
  ASSERT_GT(inputs.hot_ids.size(), 0u);
  const InputProcessor::PackedFlat packed =
      InputProcessor::PackFlat(f.dataset, inputs, 1);
  ASSERT_GT(packed.hot.size(), 0u);

  auto translated = rep.TranslateFlat(packed.hot);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  for (size_t t = 0; t < f.schema.num_tables(); ++t) {
    const std::span<const uint32_t> rows = packed.hot.indices(t);
    const std::span<const uint32_t> slots = translated->indices(t);
    ASSERT_EQ(slots.size(), rows.size());
    for (size_t j = 0; j < slots.size(); ++j) {
      EXPECT_EQ(rep.RowOf(t, slots[j]), rows[j]);
    }
    EXPECT_TRUE(std::ranges::equal(translated->offsets(t),
                                   packed.hot.offsets(t)));
  }
  EXPECT_TRUE(std::ranges::equal(translated->labels(), packed.hot.labels()));
}

TEST(ReplicatorTest, TranslateRejectsColdLookup) {
  Fixture f;
  EmbeddingReplicator rep(f.masters, f.hot);
  // Build a fake batch pointing at a cold row of the largest table.
  uint32_t cold_row = 0;
  bool found = false;
  for (uint32_t r = 0; r < f.masters[0].rows() && !found; ++r) {
    if (!f.hot.IsHot(0, r)) {
      cold_row = r;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  FlatDataset batch(f.schema);
  for (size_t d = 0; d < f.schema.num_dense; ++d) batch.AppendDense(0.0f);
  batch.AppendLookup(0, cold_row);
  for (size_t t = 1; t < f.schema.num_tables(); ++t) batch.AppendLookup(t, 0);
  batch.FinishSample(1.0f);
  auto translated = rep.TranslateFlat(batch);
  ASSERT_FALSE(translated.ok());
  EXPECT_EQ(translated.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fae
