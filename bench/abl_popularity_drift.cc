// Ablation (beyond the paper): FAE's static once-per-dataset calibration
// under *drifting* popularity. The paper assumes the hot set is stable
// ("certain inputs are always going to be more popular than the others");
// real logs trend. This harness rotates the hot set through the tables
// over the dataset and measures what happens to FAE's hot coverage and
// modeled speedup.
//
// Expected: with drift, the union of hot sets over time inflates the hot
// slice the budget must hold while the *instantaneous* hot-input fraction
// sags at both ends; speedup degrades smoothly and re-calibration (here:
// classifying from a sample of the same epoch being trained) restores it.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/input_processor.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  const size_t inputs = args.GetNonNegativeInt("inputs", 60000);
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));
  const DatasetScale scale = DatasetScale::kTiny;

  bench::PrintHeader("Ablation: FAE under popularity drift");
  std::printf("%d GPUs, Kaggle-like workload, %zu inputs\n\n", gpus, inputs);
  std::printf("%-8s %12s %12s %12s %12s %10s %10s %10s\n", "drift",
              "hot-all%", "hot-early%", "hot-late%", "hot-slice", "speedup",
              "demoted", "fallback");

  for (double drift : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    DatasetSchema schema = MakeKaggleLikeSchema(scale);
    SyntheticGenerator gen(schema,
                           {.seed = 42, .popularity_drift = drift});
    Dataset dataset = gen.Generate(inputs);
    Dataset::Split split = dataset.MakeSplit(0.1);

    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.large_table_bytes = bench::LargeTableCutoff(scale);
    cfg.gpu_memory_budget =
        bench::HotBudget(scale, schema.embedding_dim);
    cfg.num_threads = 2;
    FaePipeline pipeline(cfg);
    auto plan = pipeline.Prepare(dataset, split.train);
    if (!plan.ok()) {
      std::printf("%-8.2f calibration failed: %s\n", drift,
                  plan.status().ToString().c_str());
      continue;
    }

    // Hot-input fraction at the two ends of the dataset (the plan is
    // built from a uniform sample over all of it).
    InputProcessor processor(2);
    const size_t decile = dataset.size() / 10;
    std::vector<uint64_t> early_ids(decile);
    std::vector<uint64_t> late_ids(decile);
    for (size_t i = 0; i < decile; ++i) {
      early_ids[i] = i;
      late_ids[i] = dataset.size() - decile + i;
    }
    const double early =
        processor.Classify(dataset, plan->hot_set, early_ids).HotFraction();
    const double late =
        processor.Classify(dataset, plan->hot_set, late_ids).HotFraction();

    TrainOptions opt;
    opt.per_gpu_batch = 1024;
    opt.epochs = 1;
    opt.run_math = false;

    SystemSpec sys = MakePaperServer(gpus);
    sys.hot_embedding_budget = cfg.gpu_memory_budget;
    auto base_model = MakeModel(schema, true, 5);
    Trainer base_trainer(base_model.get(), sys, opt);
    TrainReport base = base_trainer.TrainBaseline(dataset, split).value();
    auto fae_model = MakeModel(schema, true, 5);
    Trainer fae_trainer(fae_model.get(), sys, opt);
    auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
    if (!fae.ok()) {
      std::printf("%-8.2f training failed: %s\n", drift,
                  fae.status().ToString().c_str());
      continue;
    }
    // When drift inflates the union hot set past the GPU budget, the
    // trainer demotes overflow rows instead of aborting (graceful
    // degradation); the last two columns show how much fell back.
    std::printf("%-8.2f %11.1f%% %11.1f%% %11.1f%% %12s %9.2fx %10llu %10llu\n",
                drift, 100 * fae->hot_fraction, 100 * early, 100 * late,
                HumanBytes(fae->hot_bytes).c_str(),
                base.modeled_seconds / fae->modeled_seconds,
                static_cast<unsigned long long>(fae->demoted_rows),
                static_cast<unsigned long long>(fae->fallback_inputs));
  }
  std::printf(
      "\nReading: moderate drift inflates the *union* hot set (the slice\n"
      "grows toward the budget and early/late coverage diverges); at a full\n"
      "rotation no input stays entirely hot and FAE degenerates to the\n"
      "baseline (speedup 1.0x) — the deployment caveat behind the paper's\n"
      "static-popularity assumption. When the union slice outgrows the GPU\n"
      "budget the trainer demotes the least useful rows (demoted/fallback\n"
      "columns) rather than aborting. Production use would re-run the cheap\n"
      "sampled calibration as the serving distribution moves.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
