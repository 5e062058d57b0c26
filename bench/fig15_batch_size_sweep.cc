// Reproduces Fig 15: FAE speedup over the baseline as the mini-batch size
// grows (4 GPUs, weak scaling).
//
// Paper shape: larger mini-batches amortize FAE's replication/sync
// overhead, pushing the speedup up to ~4.7x at large batches.

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
  // Default to inputs >> table rows, the regime of the paper's datasets
  // (45M-80M inputs vs <=10M-row tables).
  const size_t inputs = args.GetNonNegativeInt("inputs", 60000);
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));

  bench::PrintHeader("Fig 15: FAE speedup vs per-GPU mini-batch size");
  std::printf("%d GPUs, weak scaling\n\n", gpus);
  std::printf("%-22s %10s %14s %14s %9s\n", "workload", "batch", "baseline",
              "fae", "speedup");

  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    Dataset::Split split = dataset.MakeSplit(0.1);

    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.large_table_bytes = bench::LargeTableCutoff(scale);
    cfg.gpu_memory_budget =
        bench::HotBudget(scale, dataset.schema().embedding_dim);
    cfg.num_threads = 2;
    FaePipeline pipeline(cfg);
    auto plan = pipeline.Prepare(dataset, split.train);
    if (!plan.ok()) {
      std::printf("%s: plan failed\n",
                  std::string(WorkloadName(kind)).c_str());
      continue;
    }

    for (size_t batch : {256u, 1024u, 4096u, 8192u}) {
      TrainOptions opt;
      opt.per_gpu_batch = batch;
      opt.epochs = 1;
      opt.run_math = false;

      SystemSpec sys = MakePaperServer(gpus);
      sys.hot_embedding_budget = cfg.gpu_memory_budget;
      auto base_model = MakeModel(dataset.schema(), true, 5);
      Trainer base_trainer(base_model.get(), sys, opt);
      TrainReport base = base_trainer.TrainBaseline(dataset, split).value();
      auto fae_model = MakeModel(dataset.schema(), true, 5);
      Trainer fae_trainer(fae_model.get(), sys, opt);
      auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
      if (!fae.ok()) continue;
      std::printf("%-22s %10zu %14s %14s %8.2fx\n",
                  std::string(WorkloadName(kind)).c_str(), batch,
                  HumanSeconds(base.modeled_seconds).c_str(),
                  HumanSeconds(fae->modeled_seconds).c_str(),
                  base.modeled_seconds / fae->modeled_seconds);
    }
  }
  std::printf(
      "\nPaper reference: speedups grow with the mini-batch size, up to\n"
      "~4.7x at large batches (Fig 15).\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
