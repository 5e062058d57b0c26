#include "core/calibrator.h"

#include <gtest/gtest.h>

#include "core/embedding_logger.h"
#include "data/synthetic.h"

namespace fae {
namespace {

Dataset MakeData(size_t n = 4000) {
  SyntheticGenerator gen(MakeKaggleLikeSchema(DatasetScale::kTiny),
                         {.seed = 21});
  return gen.Generate(n);
}

FaeConfig TestConfig() {
  FaeConfig cfg;
  cfg.sample_rate = 0.25;  // tiny datasets need a bigger sample
  cfg.gpu_memory_budget = 64ULL << 10;  // 64 KB forces a real trade-off
  // Tiny-scale tables are all below the paper's 1 MB cutoff; shrink it so
  // the hot/cold machinery is actually exercised.
  cfg.large_table_bytes = 1ULL << 12;
  cfg.num_threads = 2;
  return cfg;
}

TEST(EmbeddingLoggerTest, ProfilesExactlyTheSampledInputs) {
  Dataset d = MakeData(100);
  std::vector<uint64_t> ids = {1, 3, 5};
  EmbeddingLogger::Result r = EmbeddingLogger::Profile(d, ids);
  EXPECT_EQ(r.num_inputs, 3u);
  uint64_t expected = 0;
  for (uint64_t i : ids) expected += d.flat().NumLookups(i);
  EXPECT_EQ(r.num_lookups, expected);
  EXPECT_EQ(r.profile.grand_total(), expected);
}

TEST(CalibratorTest, FindsAThresholdWithinBudget) {
  Dataset d = MakeData();
  Calibrator calibrator(TestConfig());
  auto result = calibrator.Calibrate(d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->threshold, 0.0);
  EXPECT_LE(result->estimated_hot_bytes, TestConfig().gpu_memory_budget);
  EXPECT_GT(result->sampled_inputs, 0u);
  EXPECT_FALSE(result->sweep.empty());
}

TEST(CalibratorTest, SweepSizesGrowAsThresholdShrinks) {
  Dataset d = MakeData();
  Calibrator calibrator(TestConfig());
  auto result = calibrator.Calibrate(d);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->sweep.size(); ++i) {
    EXPECT_LT(result->sweep[i].threshold, result->sweep[i - 1].threshold);
    // Estimated sizes are statistically monotone; allow tiny jitter.
    EXPECT_GE(result->sweep[i].estimated_hot_bytes * 1.2 + 1024,
              result->sweep[i - 1].estimated_hot_bytes);
  }
}

TEST(CalibratorTest, PicksFinestFittingThreshold) {
  Dataset d = MakeData();
  Calibrator calibrator(TestConfig());
  auto result = calibrator.Calibrate(d);
  ASSERT_TRUE(result.ok());
  // The chosen threshold is the last sweep point that fits.
  double finest_fit = 0.0;
  for (const ThresholdPoint& p : result->sweep) {
    if (p.fits) finest_fit = p.threshold;
  }
  EXPECT_DOUBLE_EQ(result->threshold, finest_fit);
}

TEST(CalibratorTest, LargerBudgetAllowsFinerThreshold) {
  Dataset d = MakeData();
  FaeConfig small_cfg = TestConfig();
  FaeConfig big_cfg = TestConfig();
  big_cfg.gpu_memory_budget = 256ULL << 20;
  auto small = Calibrator(small_cfg).Calibrate(d);
  auto big = Calibrator(big_cfg).Calibrate(d);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_LE(big->threshold, small->threshold);
}

TEST(CalibratorTest, TinyBudgetFails) {
  Dataset d = MakeData();
  FaeConfig cfg = TestConfig();
  cfg.gpu_memory_budget = 16;  // nothing fits (small tables alone exceed it)
  auto result = Calibrator(cfg).Calibrate(d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(CalibratorTest, RejectsBadConfigs) {
  Dataset d = MakeData(50);
  FaeConfig cfg = TestConfig();
  cfg.sample_rate = 0.0;
  EXPECT_EQ(Calibrator(cfg).Calibrate(d).status().code(),
            StatusCode::kInvalidArgument);
  cfg = TestConfig();
  cfg.thresholds.clear();
  EXPECT_EQ(Calibrator(cfg).Calibrate(d).status().code(),
            StatusCode::kInvalidArgument);
  cfg = TestConfig();
  cfg.thresholds = {1e-3, 1e-2};  // ascending: invalid
  EXPECT_EQ(Calibrator(cfg).Calibrate(d).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CalibratorTest, EmptyDatasetRejected) {
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  Dataset d{FlatDataset(schema)};
  EXPECT_EQ(Calibrator(TestConfig()).Calibrate(d).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CalibratorTest, SmallTableBytesCountsOnlySmallTables) {
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  const uint64_t cutoff = 1 << 12;
  uint64_t expected = 0;
  for (size_t t = 0; t < schema.num_tables(); ++t) {
    if (schema.TableBytes(t) < cutoff) expected += schema.TableBytes(t);
  }
  EXPECT_EQ(SmallTableBytes(schema, cutoff), expected);
}

TEST(CalibratorTest, SampledProfileSharesShapeWithFullProfile) {
  // Paper Fig 7: a 5% sample reproduces the access signature. At tiny
  // scale we use 25%.
  Dataset d = MakeData();
  Calibrator calibrator(TestConfig());
  auto result = calibrator.Calibrate(d);
  ASSERT_TRUE(result.ok());
  AccessProfile full = d.ProfileAllAccesses();
  // Compare hot shares at the chosen cutoff scaled to full size.
  const double sampled_share =
      static_cast<double>(result->profile.TopShare(0, 0.05));
  const double full_share = full.TopShare(0, 0.05);
  EXPECT_NEAR(sampled_share, full_share, 0.1);
}

}  // namespace
}  // namespace fae
