#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "test_temp_dir.h"
#include "util/file_io.h"

namespace fae {
namespace {

using test::TempPath;

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 13}).Generate(3000)),
        split(dataset.MakeSplit(0.1)) {}

  static TrainOptions Options() {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 1;
    opt.run_math = true;
    opt.eval_samples = 256;
    return opt;
  }

  static FaeConfig Config() {
    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.gpu_memory_budget = 384ULL << 10;
    cfg.large_table_bytes = 1ULL << 12;
    cfg.num_threads = 2;
    return cfg;
  }

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

// The overlay contract: sharding only reprices the timeline. Losses, the
// whole curve, every embedding table value, and the real phase charges are
// bit-identical across the two modes.
TEST(ShardingTest, MathIsBitIdenticalAcrossModes) {
  Fixture f;
  SystemSpec sys = MakeMultiNodeCluster(2, 2);
  sys.hot_embedding_budget = Fixture::Config().gpu_memory_budget;
  std::vector<TrainReport> reports;
  std::vector<std::vector<std::vector<float>>> tables;
  for (ShardingMode mode : {ShardingMode::kReplicate, ShardingMode::kLpt}) {
    TrainOptions opt = Fixture::Options();
    opt.sharding = mode;
    auto model = MakeModel(f.schema, false, 5);
    Trainer trainer(model.get(), sys, opt);
    auto report = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    reports.push_back(std::move(report).value());
    tables.emplace_back();
    for (const EmbeddingTable& t : model->tables()) {
      tables.back().push_back(t.raw());
    }
  }
  const TrainReport& rep = reports[0];
  for (size_t i = 1; i < reports.size(); ++i) {
    const TrainReport& other = reports[i];
    EXPECT_EQ(other.final_train_loss, rep.final_train_loss);
    EXPECT_EQ(other.final_test_loss, rep.final_test_loss);
    EXPECT_EQ(other.final_test_auc, rep.final_test_auc);
    EXPECT_EQ(other.num_batches, rep.num_batches);
    EXPECT_EQ(other.sync_bytes, rep.sync_bytes);
    ASSERT_EQ(other.curve.size(), rep.curve.size());
    for (size_t c = 0; c < rep.curve.size(); ++c) {
      EXPECT_EQ(other.curve[c].train_loss, rep.curve[c].train_loss);
      EXPECT_EQ(other.curve[c].test_loss, rep.curve[c].test_loss);
    }
    // Real charges are mode-independent; only the saved-seconds credit
    // (excluded from the per-phase ledger) differs.
    for (size_t ph = 0; ph < static_cast<size_t>(Phase::kNumPhases); ++ph) {
      EXPECT_EQ(other.timeline.seconds(static_cast<Phase>(ph)),
                rep.timeline.seconds(static_cast<Phase>(ph)))
          << "phase " << ph << " mode " << i;
    }
    EXPECT_EQ(other.timeline.pcie_bytes(), rep.timeline.pcie_bytes());
    ASSERT_EQ(tables[i].size(), tables[0].size());
    for (size_t t = 0; t < tables[0].size(); ++t) {
      EXPECT_EQ(tables[i][t], tables[0][t]) << "table " << t;
    }
  }
  // Replicate carries no placement; LPT reports one.
  EXPECT_EQ(rep.sharding_imbalance, 0.0);
  EXPECT_GE(reports[1].sharding_imbalance, 1.0);
}

TEST(ShardingTest, BaselineRejectsSharding) {
  Fixture f;
  TrainOptions opt = Fixture::Options();
  opt.sharding = ShardingMode::kLpt;
  auto model = MakeModel(f.schema, false, 5);
  Trainer trainer(model.get(), MakePaperServer(2), opt);
  auto report = trainer.TrainBaseline(f.dataset, f.split);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardingTest, CachedPlanWithoutProfileIsRejected) {
  // Plans loaded from the FAE-format cache carry no per-row access
  // profile; the trainer must refuse to shard from one instead of
  // planning blind.
  Fixture f;
  const FaeConfig cfg = Fixture::Config();
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok());
  plan->calibration.profile = AccessProfile(std::vector<uint64_t>{});

  TrainOptions opt = Fixture::Options();
  opt.sharding = ShardingMode::kLpt;
  auto model = MakeModel(f.schema, false, 5);
  Trainer trainer(model.get(), MakePaperServer(2), opt);
  auto report = trainer.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardingTest, ResumeMaySwitchShardingMode) {
  // --sharding is fingerprint-exempt: a checkpoint written under replicate
  // resumes under lpt, and because the overlay never touches the
  // math, the resumed curve still matches the uninterrupted replicate run
  // bit for bit.
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  Dataset dataset = SyntheticGenerator(schema, {.seed = 71}).Generate(2400);
  Dataset::Split split = dataset.MakeSplit(0.15);
  const std::string path = TempPath("fae_resume_sharding.faec");
  FaeConfig cfg = Fixture::Config();
  cfg.gpu_memory_budget = 8ULL << 20;
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(dataset, split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  TrainOptions base_opt = Fixture::Options();
  base_opt.epochs = 2;

  auto model_a = MakeModel(schema, false, 5);
  Trainer uninterrupted(model_a.get(), MakePaperServer(1), base_opt);
  auto a = uninterrupted.TrainFaeWithPlan(dataset, split, cfg, *plan);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_GT(a->num_batches, 45u);

  TrainOptions opt = base_opt;
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 1;
  auto crash_plan = FaultInjector::Parse("crash@45");
  ASSERT_TRUE(crash_plan.ok());
  opt.fault_injector = &*crash_plan;
  auto model_b = MakeModel(schema, false, 5);
  Trainer crashing(model_b.get(), MakePaperServer(1), opt);
  auto b = crashing.TrainFaeWithPlan(dataset, split, cfg, *plan);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->interrupted);

  TrainOptions resume_opt = base_opt;
  resume_opt.checkpoint.path = path;
  resume_opt.checkpoint.resume = true;
  resume_opt.sharding = ShardingMode::kLpt;
  auto model_c = MakeModel(schema, false, 999);
  Trainer resumed(model_c.get(), MakePaperServer(1), resume_opt);
  auto c = resumed.TrainFaeWithPlan(dataset, split, cfg, *plan);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(c->resumed);
  EXPECT_EQ(c->num_batches, a->num_batches);
  ASSERT_EQ(c->curve.size(), a->curve.size());
  for (size_t i = 0; i < a->curve.size(); ++i) {
    EXPECT_EQ(c->curve[i].train_loss, a->curve[i].train_loss);
    EXPECT_EQ(c->curve[i].test_loss, a->curve[i].test_loss);
  }
  EXPECT_DOUBLE_EQ(c->final_test_loss, a->final_test_loss);
  EXPECT_GE(c->sharding_imbalance, 1.0);  // the resumed run did shard
  (void)RemoveFile(path);
}

}  // namespace
}  // namespace fae
