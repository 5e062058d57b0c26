// End-to-end integration: the full production workflow the CLI exposes —
// generate -> persist dataset -> reload -> preprocess (cached FAE plan) ->
// train with FAE -> checkpoint -> restore -> serve — with cross-stage
// consistency checks at every hand-off.

#include <gtest/gtest.h>

#include "fae.h"  // umbrella header must stay self-contained

#include "core/fae_pipeline.h"
#include "data/dataset_io.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "models/model_io.h"
#include "test_temp_dir.h"
#include "util/file_io.h"

namespace fae {
namespace {

using test::TempPath;

TEST(IntegrationTest, FullWorkflowEndToEnd) {
  const std::string data_path = TempPath("fae_e2e.faed");
  const std::string plan_path = TempPath("fae_e2e.faef");
  const std::string ckpt_path = TempPath("fae_e2e.faem");
  for (const auto& p : {data_path, plan_path, ckpt_path}) {
    (void)RemoveFile(p);
  }

  // 1) Generate and persist a dataset.
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  Dataset generated =
      SyntheticGenerator(schema, {.seed = 2024}).Generate(5000);
  ASSERT_TRUE(DatasetIo::Save(data_path, generated).ok());

  // 2) Reload it (a separate process would start here).
  auto loaded = DatasetIo::Load(data_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Dataset::Split split = loaded->MakeSplit(0.15);

  // 3) Static FAE pass, cached to disk.
  FaeConfig config;
  config.sample_rate = 0.25;
  config.gpu_memory_budget = 384ULL << 10;
  config.large_table_bytes = 1ULL << 12;
  config.num_threads = 2;
  FaePipeline pipeline(config);
  auto plan = pipeline.PrepareCached(*loaded, split.train, plan_path);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->from_cache);
  EXPECT_GT(plan->inputs.HotFraction(), 0.2);

  // 3b) Reloading the plan must reproduce it exactly.
  auto cached = pipeline.PrepareCached(*loaded, split.train, plan_path);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);
  EXPECT_EQ(cached->inputs.hot_ids, plan->inputs.hot_ids);

  // 4) Train with FAE (real math, dirty sync, 2 simulated GPUs).
  TrainOptions options;
  options.per_gpu_batch = 64;
  options.epochs = 1;
  options.eval_samples = 512;
  options.sync_strategy = SyncStrategy::kDirty;
  auto model = MakeModel(schema, false, 7);
  Trainer trainer(model.get(), MakePaperServer(2), options);
  auto report = trainer.TrainFaeWithPlan(*loaded, split, config, *cached);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->final_test_acc, 0.45);
  EXPECT_GT(report->num_batches, 0u);

  // 5) Checkpoint and restore into a differently-initialized model.
  ASSERT_TRUE(ModelIo::Save(ckpt_path, *model).ok());
  auto served = MakeModel(schema, false, 31337);
  ASSERT_TRUE(ModelIo::Load(ckpt_path, *served).ok());

  // 6) The restored model must score identically to the trained one.
  const std::vector<uint64_t> probe_ids(split.test.begin(),
                                        split.test.begin() + 64);
  const FlatDataset probe_set = loaded->flat().Gather(probe_ids);
  const BatchView probe = MakeBatchView(probe_set, 0, 64, /*hot=*/false);
  EXPECT_EQ(MaxAbsDiff(model->EvalLogits(probe), served->EvalLogits(probe)),
            0.0f);

  // 7) And its evaluation metrics must match the training-side report.
  const FlatDataset test_set = loaded->flat().Gather(split.test);
  EvalResult eval =
      Evaluate(*served, MakeBatchViews(test_set, 128, /*hot=*/false));
  EXPECT_GT(eval.auc, 0.5);  // learned something

  for (const auto& p : {data_path, plan_path, ckpt_path}) {
    (void)RemoveFile(p);
  }
}

TEST(IntegrationTest, PlanCacheSurvivesDatasetReload) {
  // Fingerprint stability: a dataset saved and reloaded must accept the
  // plan cached against the original.
  const std::string data_path = TempPath("fae_e2e_fp.faed");
  const std::string plan_path = TempPath("fae_e2e_fp.faef");
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  Dataset original = SyntheticGenerator(schema, {.seed = 11}).Generate(2000);
  Dataset::Split split = original.MakeSplit(0.1);

  FaeConfig config;
  config.sample_rate = 0.3;
  config.gpu_memory_budget = 768ULL << 10;
  config.large_table_bytes = 1ULL << 12;
  FaePipeline pipeline(config);
  auto fresh = pipeline.PrepareCached(original, split.train, plan_path);
  ASSERT_TRUE(fresh.ok());

  ASSERT_TRUE(DatasetIo::Save(data_path, original).ok());
  auto reloaded = DatasetIo::Load(data_path);
  ASSERT_TRUE(reloaded.ok());
  auto cached = pipeline.PrepareCached(*reloaded, split.train, plan_path);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_cache);

  (void)RemoveFile(data_path);
  (void)RemoveFile(plan_path);
}

}  // namespace
}  // namespace fae
