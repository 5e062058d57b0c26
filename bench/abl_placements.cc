// Ablation: every embedding placement in one table — the paper's hybrid
// baseline and FAE, plus the alternatives its related-work section argues
// against: NvOPT-style fp16-on-GPU, model-parallel table sharding, and a
// transparent per-GPU cache with FAE's exact hot set as its contents.
//
// Sweeping the hot-embedding budget L maps where FAE's batch
// reorganization beats the transparent cache (the cache pays a host round
// trip on nearly every batch; FAE pays full CPU cost on cold batches —
// the crossover moves with the hot-input fraction L induces).

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 60000);
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));
  const std::string workload = args.GetString("workload", "kaggle");
  const WorkloadKind kind = workload == "taobao"
                                ? WorkloadKind::kTaobaoTbsm
                                : (workload == "terabyte"
                                       ? WorkloadKind::kTerabyteDlrm
                                       : WorkloadKind::kKaggleDlrm);

  bench::PrintHeader("Ablation: embedding placements at varying budget L");
  Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
  Dataset::Split split = dataset.MakeSplit(0.1);
  std::printf("%s, %d GPUs, %zu inputs\n\n",
              std::string(WorkloadName(kind)).c_str(), gpus,
              dataset.size());

  TrainOptions opt;
  opt.per_gpu_batch = kind == WorkloadKind::kTaobaoTbsm ? 256 : 1024;
  opt.epochs = 1;
  opt.run_math = false;

  SystemSpec sys = MakePaperServer(gpus);

  // Budget-independent rows first.
  auto base_model = MakeModel(dataset.schema(), true, 5);
  Trainer base_trainer(base_model.get(), sys, opt);
  const double base_s =
      base_trainer.TrainBaseline(dataset, split).value().modeled_seconds;
  std::printf("%-16s %14s\n", "baseline", HumanSeconds(base_s).c_str());

  {
    auto model = MakeModel(dataset.schema(), true, 5);
    Trainer trainer(model.get(), sys, opt);
    auto mp = trainer.TrainModelParallel(dataset, split);
    if (mp.ok()) {
      std::printf("%-16s %14s  (speedup %.2fx)\n", "model-parallel",
                  HumanSeconds(mp->modeled_seconds).c_str(),
                  base_s / mp->modeled_seconds);
    } else {
      std::printf("%-16s %s\n", "model-parallel",
                  mp.status().ToString().c_str());
    }
  }
  {
    auto model = MakeModel(dataset.schema(), true, 5);
    Trainer trainer(model.get(), sys, opt);
    TrainReport nv = trainer.TrainNvOpt(dataset, split).value();
    std::printf("%-16s %14s  (speedup %.2fx)\n", "nvopt-fp16",
                HumanSeconds(nv.modeled_seconds).c_str(),
                base_s / nv.modeled_seconds);
  }

  std::printf("\nbudget sweep (FAE vs transparent cache, same hot set):\n");
  std::printf("%-12s %12s %12s %12s %12s %12s\n", "L", "hot-inputs%",
              "fae", "fae-speedup", "cache", "cache-speedup");
  const uint64_t base_budget =
      bench::HotBudget(scale, dataset.schema().embedding_dim);
  for (double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.large_table_bytes = bench::LargeTableCutoff(scale);
    cfg.gpu_memory_budget =
        static_cast<uint64_t>(mult * static_cast<double>(base_budget));
    cfg.num_threads = 2;
    FaePipeline pipeline(cfg);
    auto plan = pipeline.Prepare(dataset, split.train);
    if (!plan.ok()) {
      std::printf("%-12s (no fitting threshold)\n",
                  HumanBytes(cfg.gpu_memory_budget).c_str());
      continue;
    }
    SystemSpec budget_sys = sys;
    budget_sys.hot_embedding_budget = cfg.gpu_memory_budget;

    auto fae_model = MakeModel(dataset.schema(), true, 5);
    Trainer fae_trainer(fae_model.get(), budget_sys, opt);
    auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
    auto cache_model = MakeModel(dataset.schema(), true, 5);
    Trainer cache_trainer(cache_model.get(), budget_sys, opt);
    TrainReport cache =
        cache_trainer.TrainGpuCache(dataset, split, *plan).value();
    if (!fae.ok()) continue;
    std::printf("%-12s %11.1f%% %12s %11.2fx %12s %11.2fx\n",
                HumanBytes(cfg.gpu_memory_budget).c_str(),
                100 * plan->inputs.HotFraction(),
                HumanSeconds(fae->modeled_seconds).c_str(),
                base_s / fae->modeled_seconds,
                HumanSeconds(cache.modeled_seconds).c_str(),
                base_s / cache.modeled_seconds);
  }
  std::printf(
      "\nReading: FAE's advantage grows with the hot-input fraction a larger\n"
      "L induces; below that it pays full CPU cost on cold batches while the\n"
      "cache (even with indirection + per-batch host round trips) serves\n"
      "most *lookups* regardless of batch composition. The idealized cache\n"
      "being this competitive is consistent with later systems (TorchRec UVM\n"
      "caching, HugeCTR embedding cache) adopting caching over input\n"
      "reorganization.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
