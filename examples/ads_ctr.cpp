// Ads click-through-rate scenario (the paper's RMC2/Criteo-Kaggle use
// case): an advertising platform trains a DLRM on click logs and wants to
// know how FAE changes the training-cluster picture as GPUs are added.
//
// Demonstrates: FAE-format caching (the static pass runs once and is
// reloaded afterwards), multi-GPU weak scaling, per-phase breakdowns.
//
// Build & run:  ./build/examples/ads_ctr [--inputs=N]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/file_io.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace fae;

  size_t num_inputs = 30000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--inputs=", 0) == 0) num_inputs = std::atol(arg.c_str() + 9);
  }

  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  SyntheticGenerator generator(schema, {.seed = 1234});
  Dataset dataset = generator.Generate(num_inputs);
  Dataset::Split split = dataset.MakeSplit(0.1);

  FaeConfig config;
  config.sample_rate = 0.25;
  config.gpu_memory_budget = 384 << 10;
  config.large_table_bytes = 4 << 10;

  // The static pass persists its output in the FAE format; rerunning this
  // binary reuses the cache (delete the file to recalibrate).
  const std::string cache = "/tmp/ads_ctr.faef";
  FaePipeline pipeline(config);
  auto plan = pipeline.PrepareCached(dataset, split.train, cache);
  if (!plan.ok()) {
    std::printf("preprocessing failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("plan %s: hot inputs %.1f%%, hot slice %s\n",
              plan->from_cache ? "(from cache)" : "(fresh)",
              100 * plan->inputs.HotFraction(),
              HumanBytes(plan->hot_bytes).c_str());

  std::printf("\n%5s %14s %14s %9s %18s\n", "gpus", "baseline", "fae",
              "speedup", "fae sync share");
  for (int gpus : {1, 2, 4}) {
    TrainOptions options;
    options.per_gpu_batch = 1024;
    options.epochs = 1;
    options.run_math = false;  // capacity-planning study: cost model only

    SystemSpec server = MakePaperServer(gpus);
    server.hot_embedding_budget = config.gpu_memory_budget;

    auto base_model = MakeModel(schema, /*full_size=*/true, 7);
    Trainer baseline(base_model.get(), server, options);
    auto base = baseline.TrainBaseline(dataset, split);
    if (!base.ok()) {
      std::printf("baseline failed: %s\n", base.status().ToString().c_str());
      return 1;
    }

    auto fae_model = MakeModel(schema, /*full_size=*/true, 7);
    Trainer fae_trainer(fae_model.get(), server, options);
    auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, config, *plan);
    if (!fae.ok()) {
      std::printf("fae failed: %s\n", fae.status().ToString().c_str());
      return 1;
    }
    const double sync_share =
        fae->timeline.seconds(Phase::kEmbeddingSync) /
        fae->modeled_seconds;
    std::printf("%5d %14s %14s %8.2fx %17.1f%%\n", gpus,
                HumanSeconds(base->modeled_seconds).c_str(),
                HumanSeconds(fae->modeled_seconds).c_str(),
                base->modeled_seconds / fae->modeled_seconds,
                100 * sync_share);
  }

  std::printf("\nbaseline breakdown at 4 GPUs (why the CPU hurts):\n");
  {
    TrainOptions options;
    options.per_gpu_batch = 1024;
    options.epochs = 1;
    options.run_math = false;
    auto model = MakeModel(schema, true, 7);
    Trainer baseline(model.get(), MakePaperServer(4), options);
    auto base = baseline.TrainBaseline(dataset, split);
    if (!base.ok()) {
      std::printf("baseline failed: %s\n", base.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", base->timeline.Report().c_str());
  }
  return 0;
}
