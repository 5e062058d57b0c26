// Quickstart: the whole FAE workflow in ~60 lines.
//
//   1. Build (or load) a recommendation dataset.
//   2. Run the static FAE pipeline: calibrate a hot threshold, classify
//      embeddings and inputs, pack pure hot/cold mini-batches.
//   3. Train with the FAE schedule and compare against the hybrid
//      CPU-GPU baseline: same accuracy, less (modeled) time.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

int main() {
  using namespace fae;

  // 1) A Criteo-Kaggle-like synthetic dataset: 13 dense features, 26
  //    Zipf-skewed categorical tables (see data/schema.h for presets).
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  SyntheticGenerator generator(schema, {.seed = 42});
  Dataset dataset = generator.Generate(8000);
  Dataset::Split split = dataset.MakeSplit(/*test_fraction=*/0.15);
  std::printf("dataset: %zu inputs, %zu tables, %s of embeddings\n",
              dataset.size(), schema.num_tables(),
              HumanBytes(schema.TotalEmbeddingBytes()).c_str());

  // 2) FAE static pipeline. The knobs mirror the paper: sample 5-25% of
  //    inputs, fit the hot slice into a per-GPU budget L.
  FaeConfig config;
  config.sample_rate = 0.25;
  config.gpu_memory_budget = 384 << 10;  // L
  config.large_table_bytes = 4 << 10;    // scaled-down "large" cutoff
  FaePipeline pipeline(config);
  auto plan = pipeline.Prepare(dataset, split.train);
  if (!plan.ok()) {
    std::printf("FAE preprocessing failed: %s\n",
                plan.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "FAE plan: threshold t=%.1e, hot slice %s, hot inputs %.1f%%, hot "
      "accesses %.1f%%\n",
      plan->threshold, HumanBytes(plan->hot_bytes).c_str(),
      100 * plan->inputs.HotFraction(), 100 * plan->hot_access_share);

  // 3) Train twice on the simulated 4-GPU server: baseline placement vs
  //    FAE's hot/cold schedule. Math is real; time is modeled.
  TrainOptions options;
  options.per_gpu_batch = 64;
  options.epochs = 2;

  SystemSpec server = MakePaperServer(/*num_gpus=*/4);
  server.hot_embedding_budget = config.gpu_memory_budget;

  auto baseline_model = MakeModel(schema, /*full_size=*/false, /*seed=*/7);
  Trainer baseline(baseline_model.get(), server, options);
  auto base = baseline.TrainBaseline(dataset, split);
  if (!base.ok()) {
    std::printf("baseline training failed: %s\n",
                base.status().ToString().c_str());
    return 1;
  }

  auto fae_model = MakeModel(schema, /*full_size=*/false, /*seed=*/7);
  Trainer fae_trainer(fae_model.get(), server, options);
  auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, config, *plan);
  if (!fae.ok()) {
    std::printf("FAE training failed: %s\n", fae.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-10s %12s %12s %12s\n", "mode", "test-acc", "time(model)",
              "gpu-power");
  std::printf("%-10s %11.2f%% %12s %10.1fW\n", "baseline",
              100 * base->final_test_acc,
              HumanSeconds(base->modeled_seconds).c_str(),
              base->avg_gpu_watts);
  std::printf("%-10s %11.2f%% %12s %10.1fW\n", "fae",
              100 * fae->final_test_acc,
              HumanSeconds(fae->modeled_seconds).c_str(),
              fae->avg_gpu_watts);
  std::printf("\nspeedup: %.2fx at matched accuracy\n",
              base->modeled_seconds / fae->modeled_seconds);
  return 0;
}
