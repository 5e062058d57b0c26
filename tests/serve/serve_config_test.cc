#include "serve/serve_config.h"

#include <gtest/gtest.h>

#include "util/status.h"

namespace fae {
namespace {

TEST(ServeConfigTest, DefaultsValidate) {
  EXPECT_TRUE(ServeOptions().Validate().ok());
}

TEST(ServeConfigTest, SerializeParseRoundTrips) {
  ServeOptions opts;
  opts.batch_size = 96;
  opts.num_batches = 7;
  opts.slo_hit_rate = 0.83;
  opts.ema_alpha = 0.125;
  opts.recal_window = 1234;
  opts.recal_cooldown = 9;
  opts.watchdog_deadline_seconds = 0.375;
  opts.max_recal_retries = 5;
  opts.retry_backoff_seconds = 0.015625;
  opts.continuous_training = false;
  opts.dense_lr = 0.25f;
  opts.sparse_lr = 0.5f;
  opts.num_threads = 3;
  opts.seed = 99;

  auto parsed = ServeOptions::Parse(opts.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->batch_size, opts.batch_size);
  EXPECT_EQ(parsed->num_batches, opts.num_batches);
  EXPECT_EQ(parsed->slo_hit_rate, opts.slo_hit_rate);
  EXPECT_EQ(parsed->ema_alpha, opts.ema_alpha);
  EXPECT_EQ(parsed->recal_window, opts.recal_window);
  EXPECT_EQ(parsed->recal_cooldown, opts.recal_cooldown);
  EXPECT_EQ(parsed->watchdog_deadline_seconds,
            opts.watchdog_deadline_seconds);
  EXPECT_EQ(parsed->max_recal_retries, opts.max_recal_retries);
  EXPECT_EQ(parsed->retry_backoff_seconds, opts.retry_backoff_seconds);
  EXPECT_EQ(parsed->continuous_training, opts.continuous_training);
  EXPECT_EQ(parsed->dense_lr, opts.dense_lr);
  EXPECT_EQ(parsed->sparse_lr, opts.sparse_lr);
  EXPECT_EQ(parsed->num_threads, opts.num_threads);
  EXPECT_EQ(parsed->seed, opts.seed);
  // Second generation is byte-stable (doubles print at full precision).
  EXPECT_EQ(parsed->Serialize(), opts.Serialize());
}

TEST(ServeConfigTest, RuntimeWiringStaysOutOfSerializedForm) {
  ServeOptions opts;
  opts.swap_path = "/tmp/somewhere.faef";
  const std::string text = opts.Serialize();
  EXPECT_EQ(text.find("swap_path"), std::string::npos);
  EXPECT_EQ(text.find("fault_injector"), std::string::npos);
}

TEST(ServeConfigTest, ParseRejectsMissingHeader) {
  auto parsed = ServeOptions::Parse("batch_size=1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeConfigTest, ParseRejectsWrongHeaderVersion) {
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v2\n").ok());
}

TEST(ServeConfigTest, ParseRejectsUnknownKey) {
  auto parsed = ServeOptions::Parse("FAESERVE v1\nbogus_key=3\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("bogus_key"), std::string::npos);
}

TEST(ServeConfigTest, ParseRejectsDuplicateKey) {
  EXPECT_FALSE(
      ServeOptions::Parse("FAESERVE v1\nbatch_size=2\nbatch_size=3\n").ok());
}

TEST(ServeConfigTest, ParseRejectsNonNumericValues) {
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nbatch_size=abc\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nbatch_size=-3\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nbatch_size=\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nslo_hit_rate=0.5x\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\ncontinuous_training=maybe\n")
                   .ok());
}

TEST(ServeConfigTest, ParseRejectsIntegerOverflow) {
  EXPECT_FALSE(
      ServeOptions::Parse("FAESERVE v1\nbatch_size=99999999999999999999999\n")
          .ok());
}

TEST(ServeConfigTest, ParseRejectsLinesWithoutEquals) {
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nbatch_size\n").ok());
}

TEST(ServeConfigTest, ParseAppliesValidate) {
  // Well-formed text whose values fail range checks is still rejected.
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nbatch_size=0\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nslo_hit_rate=1.5\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nema_alpha=0\n").ok());
  EXPECT_FALSE(
      ServeOptions::Parse("FAESERVE v1\nwatchdog_deadline_seconds=-1\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nmax_recal_retries=0\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\ndense_lr=0\n").ok());
  EXPECT_FALSE(ServeOptions::Parse("FAESERVE v1\nnum_threads=0\n").ok());
}

TEST(ServeConfigTest, ValidateNamesTheBadField) {
  ServeOptions opts;
  opts.recal_cooldown = 0;
  const Status status = opts.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("recal_cooldown"), std::string::npos);
}

TEST(ServeConfigTest, ValidateRefusesQuantizedColdRowsWithOracleCache) {
  ServeOptions opts;
  opts.cache = CacheMode::kOracle;
  EXPECT_TRUE(opts.Validate().ok());
  for (ColdPrecision p : {ColdPrecision::kFp16, ColdPrecision::kInt8}) {
    opts.cold_precision = p;
    const Status status = opts.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find("cold_precision"), std::string::npos);
  }
  opts.cache = CacheMode::kOff;
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(ServeConfigTest, ParseToleratesBlankLines) {
  auto parsed = ServeOptions::Parse("FAESERVE v1\n\nbatch_size=8\n\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->batch_size, 8u);
}

}  // namespace
}  // namespace fae
