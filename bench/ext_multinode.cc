// Extension (paper §IV-A3): the paper evaluates a single server ("the
// open-sourced DLRM and TBSM models do not support multi-server
// implementations. However, even in a multi-server scenario, we expect our
// insights to hold true"). This harness tests that expectation on the
// simulated cluster: N paper servers over a 100 GbE RDMA fabric — and it
// is the PR gate for --sharding (DESIGN.md §15).
//
// Three parts:
//   1. Context table: baseline vs FAE across the paper workloads and node
//      counts (the original multi-server expectation). Workloads whose
//      preprocessing or training fails are *logged and skipped*, never
//      silently dropped.
//   2. Sharding sweep: replicate / lpt on a high-skew Kaggle-like workload
//      over {1, 2, 4, 8} nodes, where LPT's all-to-all loses to
//      replication at every node count.
//   3. LPT gate: a setting where whole-table LPT beats replication — a
//      flat-popularity Kaggle-like small schema (zipf 1.05) on one 4-GPU node,
//      per-GPU batch 1024, the small scale's large-table cutoff, a 1 MB
//      hot budget. Checks:
//        a. LPT's modeled wall is below replication's there;
//        b. determinism: phase-charge totals bit-identical across the
//           modes in every setting (the placement is a cost overlay,
//           DESIGN.md §15), and with --losses a real-math pair at 2 nodes
//           must produce bit-identical test losses.
//      Any miss fails the binary (ctest's bench_multinode_smoke runs it
//      with --smoke).
//
// Usage:
//   ext_multinode [--out=BENCH_multinode.json] [--scale=tiny]
//                 [--inputs=60000] [--gpus=4] [--zipf=1.8]
//                 [--shard-inputs=12000] [--shard-batch=1024]
//                 [--budget-kb=1024] [--smoke] [--losses=1]
//
// Timing uses the simulator's modeled seconds (deterministic, so no
// reps); results are identical run to run.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

namespace fae {
namespace {

// The LPT gate's setting (part 3): the Kaggle-like small schema at a
// flat zipf, on one node of 4 GPUs.
constexpr double kGateZipf = 1.05;
constexpr uint64_t kGateBudgetBytes = 1ULL << 20;
constexpr size_t kGateInputs = 12000;
constexpr int kGateGpus = 4;
constexpr size_t kGateBatch = 1024;

struct ContextRow {
  std::string workload;
  int nodes = 0;
  double baseline_seconds = 0.0;
  double fae_seconds = 0.0;
  double net_share = 0.0;
};

struct ShardCase {
  int nodes = 0;
  ShardingMode mode = ShardingMode::kReplicate;
  double modeled_seconds = 0.0;
  double phase_sum_seconds = 0.0;
  double sharding_saved_seconds = 0.0;
  double imbalance = 0.0;
  uint64_t max_shard_bytes = 0;
};

void WriteCases(FILE* f, const char* key, const std::vector<ShardCase>& cases,
                bool last) {
  std::fprintf(f, "  \"%s\": [\n", key);
  for (size_t i = 0; i < cases.size(); ++i) {
    const ShardCase& c = cases[i];
    std::fprintf(
        f,
        "    {\"nodes\": %d, \"mode\": \"%s\", \"modeled_seconds\": %.9f, "
        "\"phase_sum_seconds\": %.9f, \"sharding_saved_seconds\": %.9f, "
        "\"imbalance\": %.4f, \"max_shard_bytes\": %llu}%s\n",
        c.nodes, std::string(ShardingModeName(c.mode)).c_str(),
        c.modeled_seconds, c.phase_sum_seconds, c.sharding_saved_seconds,
        c.imbalance, static_cast<unsigned long long>(c.max_shard_bytes),
        i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]%s\n", last ? "" : ",");
}

void WriteJson(const std::string& path, size_t shard_inputs, double zipf,
               int gpus, double hot_fraction, double gate_hot_fraction,
               const std::vector<ContextRow>& context,
               const std::vector<ShardCase>& cases,
               const std::vector<ShardCase>& gate_cases, double speedup,
               bool deterministic, bool losses_ok, bool losses_checked,
               bool gate_ok) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"ext_multinode\",\n");
  std::fprintf(f, "  \"shard_workload\": \"kaggle_dlrm_tiny\",\n");
  std::fprintf(f, "  \"shard_inputs\": %zu,\n", shard_inputs);
  std::fprintf(f, "  \"zipf\": %.3f,\n", zipf);
  std::fprintf(f, "  \"gpus_per_node\": %d,\n", gpus);
  std::fprintf(f, "  \"hot_input_fraction\": %.4f,\n", hot_fraction);
  std::fprintf(f, "  \"gate_workload\": \"kaggle_dlrm_small\",\n");
  std::fprintf(f, "  \"gate_inputs\": %zu,\n", kGateInputs);
  std::fprintf(f, "  \"gate_zipf\": %.3f,\n", kGateZipf);
  std::fprintf(f, "  \"gate_gpus\": %d,\n", kGateGpus);
  std::fprintf(f, "  \"gate_per_gpu_batch\": %zu,\n", kGateBatch);
  std::fprintf(f, "  \"gate_hot_budget_bytes\": %llu,\n",
               static_cast<unsigned long long>(kGateBudgetBytes));
  std::fprintf(f, "  \"gate_hot_input_fraction\": %.4f,\n",
               gate_hot_fraction);
  std::fprintf(f, "  \"criterion_lpt_vs_replicate_speedup\": %.4f,\n",
               speedup);
  std::fprintf(f, "  \"criterion_lpt_gate\": \"> 1\",\n");
  std::fprintf(f, "  \"phase_sums_bit_identical_across_modes\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"losses_bit_identical\": %s,\n",
               losses_checked ? (losses_ok ? "true" : "false") : "null");
  std::fprintf(f, "  \"criterion_ok\": %s,\n", gate_ok ? "true" : "false");
  WriteCases(f, "sharding_cases", cases, false);
  WriteCases(f, "lpt_gate_cases", gate_cases, false);
  std::fprintf(f, "  \"context\": [\n");
  for (size_t i = 0; i < context.size(); ++i) {
    const ContextRow& r = context[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"nodes\": %d, "
                 "\"baseline_seconds\": %.9f, \"fae_seconds\": %.9f, "
                 "\"baseline_network_share\": %.4f}%s\n",
                 r.workload.c_str(), r.nodes, r.baseline_seconds,
                 r.fae_seconds, r.net_share,
                 i + 1 < context.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Part 1: the original multi-server expectation, kept for context. A
/// workload that fails to preprocess or train is reported to stderr and
/// skipped — the old harness `continue`d silently, which read as "all
/// workloads covered" when some were not.
std::vector<ContextRow> RunContextTable(DatasetScale scale, size_t inputs,
                                        int gpus) {
  std::vector<ContextRow> rows;
  std::printf("%d GPUs per node, weak scaling\n\n", gpus);
  std::printf("%-22s %6s %14s %14s %9s %16s\n", "workload", "nodes",
              "baseline", "fae", "speedup", "base net-share");

  for (WorkloadKind kind : bench::AllWorkloads()) {
    const std::string name(WorkloadName(kind));
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
      std::fprintf(stderr, "skip %s: preprocessing failed: %s\n",
                   name.c_str(), plan.status().ToString().c_str());
      continue;
    }

    for (int nodes : {1, 2, 4}) {
      TrainOptions opt;
      opt.per_gpu_batch = kind == WorkloadKind::kTaobaoTbsm ? 256 : 1024;
      opt.epochs = 1;
      opt.run_math = false;

      SystemSpec sys = MakeMultiNodeCluster(nodes, gpus);
      sys.hot_embedding_budget = cfg.gpu_memory_budget;
      auto base_model = MakeModel(dataset.schema(), true, 5);
      Trainer base_trainer(base_model.get(), sys, opt);
      TrainReport base = base_trainer.TrainBaseline(dataset, split).value();
      auto fae_model = MakeModel(dataset.schema(), true, 5);
      Trainer fae_trainer(fae_model.get(), sys, opt);
      auto fae = fae_trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
      if (!fae.ok()) {
        std::fprintf(stderr,
                     "skip %s at %d node(s): FAE training failed: %s\n",
                     name.c_str(), nodes, fae.status().ToString().c_str());
        continue;
      }

      const double net_share =
          base.timeline.seconds(Phase::kNetwork) / base.modeled_seconds;
      std::printf("%-22s %6d %14s %14s %8.2fx %15.1f%%\n", name.c_str(),
                  nodes, HumanSeconds(base.modeled_seconds).c_str(),
                  HumanSeconds(fae->modeled_seconds).c_str(),
                  base.modeled_seconds / fae->modeled_seconds,
                  100 * net_share);
      rows.push_back({name, nodes, base.modeled_seconds,
                      fae->modeled_seconds, net_share});
    }
  }
  return rows;
}

/// Trains cost-only FAE under each sharding mode on `sys` and appends one
/// case per mode. Returns false after logging when a run fails.
bool SweepModes(const Dataset& dataset, const Dataset::Split& split,
                const FaeConfig& cfg, const FaePlan& plan,
                const SystemSpec& sys, int nodes, size_t batch,
                std::vector<ShardCase>* cases) {
  for (ShardingMode mode : {ShardingMode::kReplicate, ShardingMode::kLpt}) {
    TrainOptions opt;
    opt.per_gpu_batch = batch;
    opt.epochs = 1;
    opt.run_math = false;
    opt.sharding = mode;
    auto model = MakeModel(dataset.schema(), /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), sys, opt);
    auto report = trainer.TrainFaeWithPlan(dataset, split, cfg, plan);
    if (!report.ok()) {
      std::fprintf(stderr, "FAE training failed (%s, %d nodes): %s\n",
                   std::string(ShardingModeName(mode)).c_str(), nodes,
                   report.status().ToString().c_str());
      return false;
    }
    cases->push_back({nodes, mode, report->modeled_seconds,
                      report->timeline.PhaseSumSeconds(),
                      report->sharding_saved_seconds,
                      report->sharding_imbalance,
                      report->sharding_max_shard_bytes});
    const ShardCase& c = cases->back();
    std::printf("%6d %-12s %14s %+13.1fus %11.3f %10s\n", nodes,
                std::string(ShardingModeName(mode)).c_str(),
                HumanSeconds(c.modeled_seconds).c_str(),
                1e6 * c.sharding_saved_seconds, c.imbalance,
                HumanBytes(c.max_shard_bytes).c_str());
  }
  return true;
}

/// Within each consecutive (replicate, lpt) pair, every mode charges the
/// exact same phase totals — the placement only moves time off the
/// modeled wall.
bool PhaseSumsMatch(const std::vector<ShardCase>& cases) {
  bool same = true;
  for (size_t i = 0; i + 1 < cases.size(); i += 2) {
    same &= cases[i + 1].phase_sum_seconds == cases[i].phase_sum_seconds;
  }
  return same;
}

/// Prepares the FAE plan for a sharding setting; logs and returns an error
/// status on failure.
StatusOr<FaePlan> PreparePlan(const Dataset& dataset,
                              const Dataset::Split& split,
                              const FaeConfig& cfg) {
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(dataset, split.train);
  if (!plan.ok()) {
    std::fprintf(stderr, "FAE preprocessing failed: %s\n",
                 plan.status().ToString().c_str());
  }
  return plan;
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  const bool smoke = args.GetBool("smoke", false);
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "tiny"));
  const size_t inputs = static_cast<size_t>(
      args.GetNonNegativeInt("inputs", smoke ? 8000 : 60000));
  const int gpus = static_cast<int>(args.GetPositiveInt("gpus", 4));
  const double zipf = args.GetDouble("zipf", 1.8);
  // The shard sweep needs enough inputs for several hot batches even at
  // world size 32 (8 nodes x 4 GPUs) — fewer and it measures sync noise,
  // not steady-state steps. The sweep is cost-only and runs in ~1 s, so
  // --smoke keeps the full size.
  const size_t shard_inputs = static_cast<size_t>(
      args.GetPositiveInt("shard-inputs", 12000));
  const size_t shard_batch =
      static_cast<size_t>(args.GetPositiveInt("shard-batch", 1024));
  const uint64_t budget_bytes =
      args.GetPositiveInt("budget-kb", 1024) * 1024ull;
  const bool check_losses = args.GetBool("losses", true);

  bench::PrintHeader(
      "Extension: multi-node scaling (N paper servers over 100GbE)");
  std::vector<ContextRow> context = RunContextTable(scale, inputs, gpus);

  // Part 2: the sharding sweep. High Zipf skew concentrates the access
  // mass the way the paper's workloads do (Fig 2); whole-table LPT then
  // trades the replicas' syncs for a per-step all-to-all.
  bench::PrintHeader("Sharded hot-slice placement: replicate vs lpt");
  std::printf("kaggle-like tiny, %zu inputs, zipf %.2f, batch %zu, "
              "%d GPUs/node\n\n",
              shard_inputs, zipf, shard_batch, gpus);

  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  SyntheticOptions gen_opt;
  gen_opt.seed = 42;
  gen_opt.zipf_exponent = zipf;
  Dataset dataset =
      SyntheticGenerator(schema, gen_opt).Generate(shard_inputs);
  Dataset::Split split = dataset.MakeSplit(0.1);

  FaeConfig cfg;
  cfg.sample_rate = 0.25;
  cfg.large_table_bytes = bench::LargeTableCutoff(DatasetScale::kTiny);
  cfg.gpu_memory_budget = budget_bytes;
  cfg.num_threads = 2;
  StatusOr<FaePlan> plan = PreparePlan(dataset, split, cfg);
  if (!plan.ok()) return 2;
  const double hot_fraction = plan->inputs.HotFraction();
  std::printf("hot input fraction: %.2f\n\n", hot_fraction);

  const std::vector<int> node_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  std::vector<ShardCase> cases;
  std::printf("%6s %-12s %14s %14s %11s %10s\n", "nodes", "mode", "modeled",
              "vs replicate", "imbalance", "max shard");
  for (int nodes : node_counts) {
    SystemSpec sys = MakeMultiNodeCluster(nodes, gpus);
    sys.hot_embedding_budget = budget_bytes;
    if (!SweepModes(dataset, split, cfg, *plan, sys, nodes, shard_batch,
                    &cases)) {
      return 2;
    }
  }

  // Real-math pair at 2 nodes: the placement must not perturb training
  // math at all — losses bit-identical across modes.
  bool losses_ok = true;
  if (check_losses) {
    double first_loss = 0.0;
    SystemSpec sys = MakeMultiNodeCluster(2, gpus);
    sys.hot_embedding_budget = budget_bytes;
    for (ShardingMode mode : {ShardingMode::kReplicate, ShardingMode::kLpt}) {
      TrainOptions opt;
      opt.per_gpu_batch = shard_batch;
      opt.epochs = 1;
      opt.run_math = true;
      opt.sharding = mode;
      auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/5);
      Trainer trainer(model.get(), sys, opt);
      auto report = trainer.TrainFaeWithPlan(dataset, split, cfg, *plan);
      if (!report.ok()) {
        std::fprintf(stderr, "FAE math run failed (%s): %s\n",
                     std::string(ShardingModeName(mode)).c_str(),
                     report.status().ToString().c_str());
        return 2;
      }
      if (mode == ShardingMode::kReplicate) {
        first_loss = report->final_test_loss;
      } else {
        losses_ok &= report->final_test_loss == first_loss;
      }
    }
    std::printf("\ntest losses bit-identical across modes (2 nodes): %s\n",
                losses_ok ? "yes" : "NO");
  }

  // Part 3: the LPT gate. A flat zipf touches many distinct rows per
  // batch, so replication's all-reduce of their gradients and the full
  // sparse update every GPU repeats cost more than LPT's all-to-all and
  // its busiest owner's share; on one node the all-to-all stays on NVLink.
  bench::PrintHeader("LPT vs replication where LPT wins");
  std::printf("kaggle-like small, %zu inputs, zipf %.2f, batch %zu, "
              "%d GPUs, 1 node\n\n",
              kGateInputs, kGateZipf, kGateBatch, kGateGpus);
  const DatasetSchema gate_schema = MakeKaggleLikeSchema(DatasetScale::kSmall);
  SyntheticOptions gate_gen;
  gate_gen.seed = 42;
  gate_gen.zipf_exponent = kGateZipf;
  const Dataset gate_dataset =
      SyntheticGenerator(gate_schema, gate_gen).Generate(kGateInputs);
  const Dataset::Split gate_split = gate_dataset.MakeSplit(0.1);
  FaeConfig gate_cfg = cfg;
  gate_cfg.large_table_bytes = bench::LargeTableCutoff(DatasetScale::kSmall);
  gate_cfg.gpu_memory_budget = kGateBudgetBytes;
  StatusOr<FaePlan> gate_plan =
      PreparePlan(gate_dataset, gate_split, gate_cfg);
  if (!gate_plan.ok()) return 2;
  const double gate_hot_fraction = gate_plan->inputs.HotFraction();
  std::printf("hot input fraction: %.2f\n\n", gate_hot_fraction);
  std::vector<ShardCase> gate_cases;
  SystemSpec gate_sys = MakePaperServer(kGateGpus);
  gate_sys.hot_embedding_budget = kGateBudgetBytes;
  if (!SweepModes(gate_dataset, gate_split, gate_cfg, *gate_plan, gate_sys,
                  1, kGateBatch, &gate_cases)) {
    return 2;
  }
  const double speedup = gate_cases[1].modeled_seconds > 0.0
                             ? gate_cases[0].modeled_seconds /
                                   gate_cases[1].modeled_seconds
                             : 0.0;
  const bool deterministic = PhaseSumsMatch(cases) &&
                             PhaseSumsMatch(gate_cases);
  const bool gate_ok = speedup > 1.0 && deterministic && losses_ok;

  std::printf(
      "\nlpt vs replicate: %.4fx (gate: > 1)\n"
      "phase sums bit-identical across modes: %s\n",
      speedup, deterministic ? "yes" : "NO");

  const std::string out = args.GetString("out", "BENCH_multinode.json");
  WriteJson(out, shard_inputs, zipf, gpus, hot_fraction, gate_hot_fraction,
            context, cases, gate_cases, speedup, deterministic, losses_ok,
            check_losses, gate_ok);
  std::printf("wrote %s\n", out.c_str());

  if (!deterministic) {
    std::fprintf(stderr, "FAIL: sharding modes disagree on phase charges\n");
    return 1;
  }
  if (!losses_ok) {
    std::fprintf(stderr, "FAIL: sharding modes disagree on test losses\n");
    return 1;
  }
  if (speedup <= 1.0) {
    std::fprintf(stderr, "FAIL: lpt vs replicate %.4fx is not a win\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) { return fae::Run(argc, argv); }
