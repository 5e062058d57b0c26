#include "core/fae_format.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "test_temp_dir.h"
#include "util/file_io.h"

namespace fae {
namespace {

using test::TempPath;

struct Fixture {
  Fixture()
      : dataset(SyntheticGenerator(MakeKaggleLikeSchema(DatasetScale::kTiny),
                                   {.seed = 61})
                    .Generate(1500)) {}

  FaeConfig Config() const {
    FaeConfig cfg;
    cfg.sample_rate = 0.3;
    cfg.gpu_memory_budget = 8ULL << 20;
    cfg.large_table_bytes = 1ULL << 12;  // tiny scale: keep hot/cold real
    cfg.num_threads = 2;
    return cfg;
  }

  std::vector<uint64_t> AllIds() const {
    std::vector<uint64_t> ids(dataset.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    return ids;
  }

  Dataset dataset;
};

TEST(FaeFormatTest, FingerprintStableAndSensitive) {
  Fixture f;
  EXPECT_EQ(FaeFormat::Fingerprint(f.dataset),
            FaeFormat::Fingerprint(f.dataset));
  SyntheticGenerator other_gen(MakeTaobaoLikeSchema(DatasetScale::kTiny),
                               {.seed = 61});
  Dataset other = other_gen.Generate(1500);
  EXPECT_NE(FaeFormat::Fingerprint(f.dataset), FaeFormat::Fingerprint(other));
}

TEST(FaeFormatTest, SaveLoadRoundTrip) {
  Fixture f;
  FaePipeline pipeline(f.Config());
  auto plan = pipeline.Prepare(f.dataset, f.AllIds());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  FaePreprocessed out;
  out.fingerprint = FaeFormat::Fingerprint(f.dataset);
  out.threshold = plan->threshold;
  out.h_zt = plan->h_zt;
  out.hot_set = plan->hot_set;
  out.hot_ids = plan->inputs.hot_ids;
  out.cold_ids = plan->inputs.cold_ids;

  const std::string path = TempPath("fae_roundtrip.faef");
  ASSERT_TRUE(FaeFormat::Save(path, out).ok());
  auto loaded = FaeFormat::Load(path, f.dataset);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->threshold, out.threshold);
  EXPECT_EQ(loaded->h_zt, out.h_zt);
  EXPECT_EQ(loaded->hot_ids, out.hot_ids);
  EXPECT_EQ(loaded->cold_ids, out.cold_ids);
  for (size_t t = 0; t < f.dataset.schema().num_tables(); ++t) {
    EXPECT_EQ(loaded->hot_set.HotCount(t), out.hot_set.HotCount(t));
    EXPECT_EQ(loaded->hot_set.table_all_hot(t),
              out.hot_set.table_all_hot(t));
  }
  (void)RemoveFile(path);
}

TEST(FaeFormatTest, LoadRejectsWrongDataset) {
  Fixture f;
  FaePreprocessed out;
  out.fingerprint = FaeFormat::Fingerprint(f.dataset) + 1;  // wrong
  const std::string path = TempPath("fae_wrongfp.faef");
  ASSERT_TRUE(FaeFormat::Save(path, out).ok());
  auto loaded = FaeFormat::Load(path, f.dataset);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  (void)RemoveFile(path);
}

TEST(FaeFormatTest, LoadRejectsGarbage) {
  Fixture f;
  const std::string path = TempPath("fae_garbage.faef");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a FAE file at all, not even close.....";
  }
  auto loaded = FaeFormat::Load(path, f.dataset);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  (void)RemoveFile(path);
}

TEST(FaeFormatTest, LoadRejectsTruncation) {
  Fixture f;
  FaePipeline pipeline(f.Config());
  auto plan = pipeline.Prepare(f.dataset, f.AllIds());
  ASSERT_TRUE(plan.ok());
  FaePreprocessed out;
  out.fingerprint = FaeFormat::Fingerprint(f.dataset);
  out.hot_set = plan->hot_set;
  out.hot_ids = plan->inputs.hot_ids;
  out.cold_ids = plan->inputs.cold_ids;
  const std::string path = TempPath("fae_trunc.faef");
  ASSERT_TRUE(FaeFormat::Save(path, out).ok());
  // Chop off the trailer.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);
  auto loaded = FaeFormat::Load(path, f.dataset);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  (void)RemoveFile(path);
}

TEST(FaeFormatTest, LoadMissingFileIsNotFound) {
  Fixture f;
  auto loaded = FaeFormat::Load(TempPath("fae_missing.faef"), f.dataset);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(FaePipelineTest, PrepareProducesConsistentPlan) {
  Fixture f;
  FaePipeline pipeline(f.Config());
  auto plan = pipeline.Prepare(f.dataset, f.AllIds());
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->threshold, 0.0);
  EXPECT_GT(plan->hot_bytes, 0u);
  EXPECT_LE(plan->hot_bytes,
            static_cast<uint64_t>(f.Config().gpu_memory_budget * 1.3));
  EXPECT_GT(plan->hot_access_share, 0.3);
  EXPECT_EQ(plan->inputs.hot_ids.size() + plan->inputs.cold_ids.size(),
            f.dataset.size());
  EXPECT_FALSE(plan->from_cache);
}

TEST(FaePipelineTest, PrepareCachedWritesThenReads) {
  Fixture f;
  const std::string path = TempPath("fae_cache.faef");
  (void)RemoveFile(path);
  FaePipeline pipeline(f.Config());
  auto fresh = pipeline.PrepareCached(f.dataset, f.AllIds(), path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->from_cache);
  EXPECT_TRUE(FileExists(path));

  auto cached = pipeline.PrepareCached(f.dataset, f.AllIds(), path);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
  EXPECT_EQ(cached->threshold, fresh->threshold);
  EXPECT_EQ(cached->inputs.hot_ids, fresh->inputs.hot_ids);
  EXPECT_EQ(cached->hot_bytes, fresh->hot_bytes);
  (void)RemoveFile(path);
}

}  // namespace
}  // namespace fae
