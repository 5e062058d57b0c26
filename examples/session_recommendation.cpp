// Session-based recommendation scenario (the paper's RMC1/Taobao use
// case): a marketplace trains a TBSM over user browse sessions — each
// input carries a history of up to 21 items plus a target item — and
// tracks how the Shuffle Scheduler adapts its hot/cold interleave rate.
//
// Build & run:  ./build/examples/session_recommendation

#include <cstdio>

#include "core/shuffle_scheduler.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

int main() {
  using namespace fae;

  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  SyntheticGenerator generator(schema, {.seed = 99});
  Dataset dataset = generator.Generate(8000);
  Dataset::Split split = dataset.MakeSplit(0.15);

  double mean_history = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    mean_history += static_cast<double>(dataset.flat().lookups(0, i).size());
  }
  std::printf("sessions: %zu, mean history length %.1f (max %zu)\n",
              dataset.size(), mean_history / dataset.size(),
              schema.max_history);

  FaeConfig config;
  config.sample_rate = 0.25;
  config.gpu_memory_budget = 384 << 10;
  config.large_table_bytes = 4 << 10;

  TrainOptions options;
  options.per_gpu_batch = 64;
  options.epochs = 2;
  options.eval_samples = 512;

  SystemSpec server = MakePaperServer(2);
  server.hot_embedding_budget = config.gpu_memory_budget;

  auto baseline_model = MakeModel(schema, /*full_size=*/false, 11);
  Trainer baseline(baseline_model.get(), server, options);
  auto base = baseline.TrainBaseline(dataset, split);
  if (!base.ok()) {
    std::printf("baseline training failed: %s\n",
                base.status().ToString().c_str());
    return 1;
  }

  auto fae_model = MakeModel(schema, /*full_size=*/false, 11);
  Trainer fae_trainer(fae_model.get(), server, options);
  auto fae = fae_trainer.TrainFae(dataset, split, config);
  if (!fae.ok()) {
    std::printf("fae failed: %s\n", fae.status().ToString().c_str());
    return 1;
  }

  std::printf("\naccuracy: baseline test %.2f%%  |  fae test %.2f%%\n",
              100 * base->final_test_acc, 100 * fae->final_test_acc);
  std::printf("time:     baseline %s  |  fae %s (%.2fx)\n",
              HumanSeconds(base->modeled_seconds).c_str(),
              HumanSeconds(fae->modeled_seconds).c_str(),
              base->modeled_seconds / fae->modeled_seconds);
  std::printf(
      "schedule: %zu hot / %zu cold batches, %zu transitions, final rate "
      "R(%.0f)\n",
      fae->hot_batches, fae->cold_batches, fae->transitions,
      fae->final_rate);

  std::printf("\ntest-loss trajectory at each schedule chunk:\n");
  for (const CurvePoint& p : fae->curve) {
    std::printf("  iter %4zu: test loss %.4f, test acc %.2f%%\n",
                p.iteration, p.test_loss, 100 * p.test_acc);
  }
  return 0;
}
