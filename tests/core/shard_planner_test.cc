#include "core/shard_planner.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>

#include <gtest/gtest.h>

#include "test_temp_dir.h"
#include "util/file_io.h"
#include "util/random.h"

namespace fae {
namespace {

using test::TempPath;

constexpr uint64_t kHotThreshold = 2;

/// A manual schema in the classifier-test mold: two large masked tables
/// with Zipf-shaped access counts plus one tiny all-hot table.
struct ZipfFixture {
  DatasetSchema schema;
  AccessProfile profile;
  HotSet hot;
};

ZipfFixture MakeZipfFixture(uint64_t seed, double zipf,
                            std::vector<uint64_t> table_rows = {30000, 24000,
                                                                64}) {
  DatasetSchema schema;
  schema.name = "manual";
  schema.num_dense = 1;
  schema.embedding_dim = 16;
  schema.table_rows = std::move(table_rows);
  AccessProfile profile(schema.table_rows);
  Xoshiro256 rng(seed);
  for (size_t t = 0; t < schema.num_tables(); ++t) {
    const uint64_t head = std::min<uint64_t>(schema.table_rows[t], 3000);
    for (uint64_t r = 0; r < head; ++r) {
      const uint64_t count =
          static_cast<uint64_t>(
              2000.0 / std::pow(static_cast<double>(r + 1), zipf)) +
          rng.NextBounded(3);
      for (uint64_t i = 0; i < count; ++i) profile.Record(t, r);
    }
  }
  HotSet hot =
      EmbeddingClassifier::Classify(profile, schema, kHotThreshold, 1 << 20);
  return {std::move(schema), std::move(profile), std::move(hot)};
}

uint64_t TotalHotRows(const AccessProfile& profile, const HotSet& hot) {
  uint64_t rows = 0;
  for (size_t t = 0; t < profile.num_tables(); ++t) {
    if (hot.table_all_hot(t)) {
      rows += profile.table_rows(t);
      continue;
    }
    for (uint8_t m : hot.mask(t)) rows += m ? 1 : 0;
  }
  return rows;
}

uint64_t TotalHotMass(const AccessProfile& profile, const HotSet& hot) {
  uint64_t mass = 0;
  for (size_t t = 0; t < profile.num_tables(); ++t) {
    if (hot.table_all_hot(t)) {
      mass += profile.table_total(t);
      continue;
    }
    const std::vector<uint64_t>& counts = profile.counts(t);
    const auto mask = hot.mask(t);
    for (size_t r = 0; r < mask.size(); ++r) {
      if (mask[r]) mass += counts[r];
    }
  }
  return mass;
}

ShardPlannerOptions Options(int devices, double fraction = 0.85,
                            uint64_t byte_cap = 0) {
  return ShardPlannerOptions{devices, fraction, byte_cap,
                             /*embedding_dim=*/16};
}

TEST(ShardPlannerTest, EveryHotRowIsPlacedExactlyOnce) {
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  const uint64_t hot_rows = TotalHotRows(f.profile, f.hot);
  const uint64_t hot_mass = TotalHotMass(f.profile, f.hot);
  for (int devices : {2, 4, 8}) {
    auto plan = ShardPlanner::PlanStatistical(f.profile, f.hot,
                                              Options(devices));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const ShardedPlacement& p = plan.value();
    const uint64_t sharded_rows = std::accumulate(
        p.device_rows.begin(), p.device_rows.end(), uint64_t{0});
    const uint64_t sharded_mass = std::accumulate(
        p.device_mass.begin(), p.device_mass.end(), uint64_t{0});
    EXPECT_EQ(sharded_rows + p.replicated_rows, hot_rows);
    EXPECT_EQ(sharded_mass + p.replicated_mass, hot_mass);
    // Cold rows are never replicated — they stay CPU-resident.
    for (size_t t = 0; t < f.profile.num_tables(); ++t) {
      if (f.hot.table_all_hot(t)) continue;
      const auto mask = f.hot.mask(t);
      for (size_t r = 0; r < mask.size(); ++r) {
        if (!mask[r]) {
          EXPECT_FALSE(p.IsReplicated(t, static_cast<uint32_t>(r)));
        }
      }
    }
  }
}

TEST(ShardPlannerTest, BalancedUnderFuzzedZipfWeights) {
  // The bench gate requires imbalance <= 1.15; the planner should hold
  // that for any plausible skew, not just the benched workload.
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    const double zipf = 1.1 + 0.1 * static_cast<double>(rng.NextBounded(10));
    std::vector<uint64_t> rows;
    const size_t tables = 2 + rng.NextBounded(3);
    for (size_t t = 0; t < tables; ++t) {
      rows.push_back(20000 + rng.NextBounded(20000));
    }
    ZipfFixture f = MakeZipfFixture(100 + trial, zipf, std::move(rows));
    for (int devices : {2, 4, 8}) {
      auto plan = ShardPlanner::PlanStatistical(f.profile, f.hot,
                                                Options(devices));
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const double imbalance = plan.value().Imbalance();
      EXPECT_GE(imbalance, 1.0);
      EXPECT_LE(imbalance, 1.15)
          << "zipf " << zipf << " devices " << devices << " trial " << trial;
    }
  }
}

TEST(ShardPlannerTest, AllHotTablesAreReplicatedOutright) {
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  ASSERT_TRUE(f.hot.table_all_hot(2));  // the 64-row table
  auto plan = ShardPlanner::PlanStatistical(f.profile, f.hot, Options(4));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const ShardedPlacement& p = plan.value();
  EXPECT_EQ(p.all_replicated[2], 1);
  EXPECT_TRUE(p.cuts[2].empty());
  for (uint32_t r = 0; r < 64; ++r) EXPECT_TRUE(p.IsReplicated(2, r));
}

TEST(ShardPlannerTest, ReplicatesTheHottestRowsFirst) {
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  auto plan = ShardPlanner::PlanStatistical(f.profile, f.hot,
                                            Options(4, /*fraction=*/0.3));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const ShardedPlacement& p = plan.value();
  // Row 0 of each masked table carries the most mass — always replicated.
  EXPECT_TRUE(p.IsReplicated(0, 0));
  EXPECT_TRUE(p.IsReplicated(1, 0));
  // A 0.3 fraction must leave warm rows for the shards.
  const uint64_t sharded_rows = std::accumulate(
      p.device_rows.begin(), p.device_rows.end(), uint64_t{0});
  EXPECT_GT(sharded_rows, 0u);
}

TEST(ShardPlannerTest, ReplicateByteCapIsHonored) {
  // A single masked table (no all-hot freebies) and fraction 1.0, so only
  // the cap can stop replication: 64 rows * 64 B/row = 4096 bytes.
  ZipfFixture f = MakeZipfFixture(31, 1.3, {30000});
  const uint64_t cap = 64 * 16 * sizeof(float);
  auto plan = ShardPlanner::PlanStatistical(
      f.profile, f.hot, Options(4, /*fraction=*/1.0, /*byte_cap=*/cap));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const ShardedPlacement& p = plan.value();
  EXPECT_EQ(p.replicated_rows, 64u);
  EXPECT_LE(p.ReplicatedBytes(16), cap);
}

TEST(ShardPlannerTest, LptShardsWholeTables) {
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  auto plan = ShardPlanner::PlanLpt(f.profile, f.hot, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const ShardedPlacement& p = plan.value();
  EXPECT_EQ(p.mode, ShardingMode::kLpt);
  EXPECT_EQ(p.replicated_rows, 0u);
  EXPECT_EQ(p.replicated_mass, 0u);
  for (size_t t = 0; t < p.num_tables(); ++t) {
    if (p.cuts[t].empty()) continue;
    const uint32_t last =
        static_cast<uint32_t>(f.profile.table_rows(t)) - 1;
    EXPECT_EQ(p.DeviceOf(t, 0), p.DeviceOf(t, last)) << "table " << t;
  }
  const uint64_t sharded_mass = std::accumulate(
      p.device_mass.begin(), p.device_mass.end(), uint64_t{0});
  EXPECT_EQ(sharded_mass, TotalHotMass(f.profile, f.hot));
}

TEST(ShardPlannerTest, StatisticalBeatsLptOnImbalance) {
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  auto stat = ShardPlanner::PlanStatistical(f.profile, f.hot, Options(4));
  auto lpt = ShardPlanner::PlanLpt(f.profile, f.hot, 4);
  ASSERT_TRUE(stat.ok() && lpt.ok());
  // Three tables over four devices leave LPT with an idle device; the
  // row-level planner spreads the same mass nearly evenly.
  EXPECT_LT(stat.value().Imbalance(), lpt.value().Imbalance());
}

TEST(ShardPlannerTest, PlanIsDeterministic) {
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  auto a = ShardPlanner::PlanStatistical(f.profile, f.hot, Options(4));
  auto b = ShardPlanner::PlanStatistical(f.profile, f.hot, Options(4));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().cuts, b.value().cuts);
  EXPECT_EQ(a.value().replicated, b.value().replicated);
  EXPECT_EQ(a.value().device_mass, b.value().device_mass);
  EXPECT_EQ(a.value().device_rows, b.value().device_rows);
  EXPECT_EQ(a.value().replicated_mass, b.value().replicated_mass);
  EXPECT_EQ(a.value().replicated_rows, b.value().replicated_rows);
}

TEST(ShardPlannerTest, SaveLoadRoundTrip) {
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  auto plan = ShardPlanner::PlanStatistical(f.profile, f.hot, Options(4));
  ASSERT_TRUE(plan.ok());
  const ShardedPlacement& p = plan.value();
  const std::string path = TempPath("fae_placement.faes");
  ASSERT_TRUE(ShardPlanner::Save(path, p).ok());
  auto loaded = ShardPlanner::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ShardedPlacement& q = loaded.value();
  EXPECT_EQ(q.mode, p.mode);
  EXPECT_EQ(q.num_devices, p.num_devices);
  EXPECT_EQ(q.cuts, p.cuts);
  EXPECT_EQ(q.replicated, p.replicated);
  EXPECT_EQ(q.all_replicated, p.all_replicated);
  EXPECT_EQ(q.device_mass, p.device_mass);
  EXPECT_EQ(q.device_rows, p.device_rows);
  EXPECT_EQ(q.replicated_mass, p.replicated_mass);
  EXPECT_EQ(q.replicated_rows, p.replicated_rows);
  (void)RemoveFile(path);
}

TEST(ShardPlannerTest, SingleBitFlipsAreRejected) {
  // Same sweep as the model checkpoint container: whatever byte flips,
  // the whole-file CRC front-runs parsing and Load reports DataLoss.
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  auto plan = ShardPlanner::PlanStatistical(f.profile, f.hot, Options(2));
  ASSERT_TRUE(plan.ok());
  const std::string path = TempPath("fae_placement_bitflip.faes");
  ASSERT_TRUE(ShardPlanner::Save(path, plan.value()).ok());
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 16u);

  for (const double frac : {0.0, 0.1, 0.33, 0.5, 0.77, 0.999}) {
    const auto offset =
        static_cast<std::streamoff>(frac * static_cast<double>(size - 1));
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(offset);
    file.read(&byte, 1);
    const char flipped = static_cast<char>(byte ^ 0x40);
    file.seekp(offset);
    file.write(&flipped, 1);
    file.close();

    auto loaded = ShardPlanner::Load(path);
    ASSERT_FALSE(loaded.ok()) << "byte " << offset << " of " << size;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();

    std::fstream undo(path, std::ios::in | std::ios::out | std::ios::binary);
    undo.seekp(offset);
    undo.write(&byte, 1);
  }
  EXPECT_TRUE(ShardPlanner::Load(path).ok());  // pristine again
  (void)RemoveFile(path);
}

TEST(ShardPlannerTest, RejectsEmptyProfile) {
  // Plans restored from the calibration cache carry no per-row counts;
  // the planner must refuse them rather than shard blind.
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  AccessProfile empty((std::vector<uint64_t>()));
  auto stat = ShardPlanner::PlanStatistical(empty, f.hot, Options(4));
  ASSERT_FALSE(stat.ok());
  EXPECT_EQ(stat.status().code(), StatusCode::kInvalidArgument);
  auto lpt = ShardPlanner::PlanLpt(empty, f.hot, 4);
  ASSERT_FALSE(lpt.ok());
  EXPECT_EQ(lpt.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardPlannerTest, RejectsTableCountMismatch) {
  ZipfFixture f = MakeZipfFixture(11, 1.4);
  AccessProfile other(std::vector<uint64_t>{100});
  auto plan = ShardPlanner::PlanStatistical(other, f.hot, Options(4));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fae
