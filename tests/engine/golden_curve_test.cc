#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fae_pipeline.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

// Golden-curve regression fixtures: the committed files under
// tests/engine/golden/ pin the exact learning curve (and modeled wall) of
// tiny DLRM and TBSM runs at a fixed seed. Every value
// is printed with %.17g, so the round trip through text is bit-exact and
// any numeric drift — an optimizer tweak, a reordered reduction, a changed
// default — fails loudly here instead of shifting results silently.
//
// To regenerate after an *intentional* numeric change:
//   FAE_UPDATE_GOLDEN=1 ./fae_tests --gtest_filter='GoldenCurveTest.*'
// and commit the rewritten fixtures with the change that caused them.

#ifndef FAE_GOLDEN_DIR
#error "FAE_GOLDEN_DIR must point at tests/engine/golden"
#endif

namespace fae {
namespace {

struct GoldenRun {
  std::vector<CurvePoint> curve;
  double final_test_loss = 0.0;
  double final_test_acc = 0.0;
  double modeled_seconds = 0.0;
};

std::string Render(const GoldenRun& run) {
  std::string out =
      "# fae golden curve v1: iteration train_loss train_acc test_loss "
      "test_acc\n";
  char line[256];
  for (const CurvePoint& p : run.curve) {
    std::snprintf(line, sizeof(line), "%zu %.17g %.17g %.17g %.17g\n",
                  p.iteration, p.train_loss, p.train_acc, p.test_loss,
                  p.test_acc);
    out += line;
  }
  std::snprintf(line, sizeof(line), "final %.17g %.17g %.17g\n",
                run.final_test_loss, run.final_test_acc,
                run.modeled_seconds);
  out += line;
  return out;
}

void CheckAgainstGolden(const std::string& rendered, const std::string& name) {
  const std::string path = std::string(FAE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("FAE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path
                         << " — regenerate with FAE_UPDATE_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  // The fixtures are written by this test, so byte equality is the whole
  // check; on mismatch, report the first differing line for diagnosis.
  if (rendered == golden) return;
  const auto got_lines = Split(rendered, '\n');
  const auto want_lines = Split(golden, '\n');
  EXPECT_EQ(got_lines.size(), want_lines.size()) << "fixture shape changed";
  const size_t n = std::min(got_lines.size(), want_lines.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got_lines[i], want_lines[i]) << path << " line " << (i + 1);
  }
}

struct Fixture {
  explicit Fixture(WorkloadKind kind = WorkloadKind::kKaggleDlrm)
      : schema(MakeSchema(kind, DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 71}).Generate(2400)),
        split(dataset.MakeSplit(0.15)) {}

  static TrainOptions Options() {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 2;
    opt.eval_samples = 256;
    opt.eval_batch = 128;
    opt.evals_per_epoch = 5;
    return opt;
  }

  static FaeConfig Config() {
    FaeConfig cfg;
    cfg.sample_rate = 0.3;
    cfg.gpu_memory_budget = 8ULL << 20;
    cfg.large_table_bytes = 1ULL << 12;
    cfg.num_threads = 2;
    return cfg;
  }

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

GoldenRun ToGolden(const TrainReport& r) {
  GoldenRun g;
  g.curve = r.curve;
  g.final_test_loss = r.final_test_loss;
  g.final_test_acc = r.final_test_acc;
  g.modeled_seconds = r.modeled_seconds;
  return g;
}

TEST(GoldenCurveTest, BaselineCurveMatchesFixture) {
  Fixture f;
  auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
  Trainer trainer(model.get(), MakePaperServer(1), Fixture::Options());
  auto r = trainer.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->curve.empty());
  CheckAgainstGolden(Render(ToGolden(*r)), "baseline_curve.txt");
}

TEST(GoldenCurveTest, FaeCurveMatchesFixture) {
  Fixture f;
  auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
  Trainer trainer(model.get(), MakePaperServer(1), Fixture::Options());
  auto r = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->curve.empty());
  CheckAgainstGolden(Render(ToGolden(*r)), "fae_curve.txt");
}

// Stale-update skipping rides the same fixture: its guarded curve is just
// as deterministic as the exact one, so it gets its own golden file and
// drift in the skip heuristics (EMA, guard, revisit cadence) fails here.
TEST(GoldenCurveTest, StaleSkipCurveMatchesFixture) {
  Fixture f;
  auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
  TrainOptions opt = Fixture::Options();
  opt.stale_skip = StaleSkipMode::kAll;
  opt.stale_threshold = 0.5;
  opt.stale_min_visits = 2;
  Trainer trainer(model.get(), MakePaperServer(1), opt);
  auto r = trainer.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->curve.empty());
  CheckAgainstGolden(Render(ToGolden(*r)), "stale_skip_curve.txt");
}

// fp16 embedding emulation rounds every updated row through binary16, so
// its curve differs from the fp32 baseline's and needs its own fixture.
TEST(GoldenCurveTest, Fp16CurveMatchesFixture) {
  Fixture f;
  auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
  TrainOptions opt = Fixture::Options();
  opt.fp16_embeddings = true;
  Trainer trainer(model.get(), MakePaperServer(1), opt);
  auto r = trainer.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->curve.empty());
  CheckAgainstGolden(Render(ToGolden(*r)), "fp16_curve.txt");
}

// TBSM (the paper's RMC1) in the configuration hostbench's
// train-taobao-cached runs: FAE with the overlapped pipeline and the
// oracle cache. The cache and the pipeline reprice steps but must not move
// a loss, so the curve pins TBSM's step and eval math.
TEST(GoldenCurveTest, TbsmCurveMatchesFixture) {
  Fixture f(WorkloadKind::kTaobaoTbsm);
  auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
  TrainOptions opt = Fixture::Options();
  opt.pipeline = PipelineMode::kOverlap;
  opt.cache = CacheMode::kOracle;
  Trainer trainer(model.get(), MakePaperServer(1), opt);
  auto r = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->curve.empty());
  CheckAgainstGolden(Render(ToGolden(*r)), "tbsm_curve.txt");
}

// One line of modeled costs per overlay configuration: the wall, the
// phase sum, each overlay's savings, and the counters and link bytes the
// overlays and the sync paths produce.
std::string RenderCosts(const std::string& name, const TrainReport& r) {
  char line[1024];
  std::snprintf(
      line, sizeof(line),
      "%s %.17g %.17g %.17g %.17g %.17g %.17g %llu %llu %llu %llu %llu %llu "
      "%llu %llu %llu %llu\n",
      name.c_str(), r.modeled_seconds, r.timeline.PhaseSumSeconds(),
      r.overlap_saved_seconds, r.cache_saved_seconds,
      r.sharding_saved_seconds, r.stale_skip_saved_seconds,
      static_cast<unsigned long long>(r.cache_hits),
      static_cast<unsigned long long>(r.cache_misses),
      static_cast<unsigned long long>(r.cache_writeback_bytes),
      static_cast<unsigned long long>(r.cache_effective_transfer_bytes),
      static_cast<unsigned long long>(r.stale_skipped_rows),
      static_cast<unsigned long long>(r.stale_updated_rows),
      static_cast<unsigned long long>(r.sync_bytes),
      static_cast<unsigned long long>(r.timeline.pcie_bytes()),
      static_cast<unsigned long long>(r.timeline.nvlink_bytes()),
      static_cast<unsigned long long>(r.timeline.network_bytes()));
  return line;
}

// Pins the modeled cost of every overlay path the curve fixtures above
// leave out (they run one GPU with the pipeline and the cache off): the
// overlap pairing, the oracle cache at a starved and an ample budget,
// full and dirty sync, sharding across nodes, stale skipping on both
// drivers, and int8 cold rows. Rows are cost-only except stale skip,
// whose skip decisions read real update magnitudes.
TEST(GoldenCurveTest, OverlayCostsMatchFixture) {
  Fixture f;
  const FaeConfig cfg = Fixture::Config();
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::string out =
      "# fae overlay costs v1: name modeled_seconds phase_sum_seconds "
      "overlap_saved cache_saved sharding_saved stale_skip_saved "
      "cache_hits cache_misses cache_writeback_bytes "
      "cache_effective_transfer_bytes stale_skipped_rows stale_updated_rows "
      "sync_bytes pcie_bytes nvlink_bytes network_bytes\n";
  auto run = [&](const std::string& name, TrainMode mode,
                 const TrainOptions& opt, const SystemSpec& sys) {
    auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), sys, opt);
    StatusOr<TrainReport> r =
        mode == TrainMode::kFae
            ? trainer.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan)
            : trainer.TrainBaseline(f.dataset, f.split);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    out += RenderCosts(name, *r);
  };

  TrainOptions cost_only = Fixture::Options();
  cost_only.run_math = false;
  const SystemSpec server = MakePaperServer(1);
  // Cache budgets (rows) below and above the working set the eight-batch
  // oracle window holds.
  constexpr size_t kStarvedRows = 64;
  constexpr size_t kAmpleRows = 1 << 20;
  const std::pair<const char*, PipelineMode> pipelines[] = {
      {"off", PipelineMode::kOff},
      {"prefetch", PipelineMode::kPrefetch},
      {"overlap", PipelineMode::kOverlap}};
  const std::pair<const char*, size_t> caches[] = {
      {"nocache", 0}, {"starved", kStarvedRows}, {"ample", kAmpleRows}};
  const std::pair<const char*, SyncStrategy> syncs[] = {
      {"full", SyncStrategy::kFull}, {"dirty", SyncStrategy::kDirty}};
  for (const auto& [pname, pmode] : pipelines) {
    for (const auto& [cname, budget] : caches) {
      if (budget > 0 && pmode == PipelineMode::kOff) continue;
      TrainOptions opt = cost_only;
      opt.pipeline = pmode;
      if (budget > 0) {
        opt.cache = CacheMode::kOracle;
        opt.cache_budget_rows = budget;
      }
      run(std::string("baseline/") + pname + "/" + cname,
          TrainMode::kBaseline, opt, server);
      for (const auto& [sname, sync] : syncs) {
        opt.sync_strategy = sync;
        run(std::string("fae/") + pname + "/" + cname + "/" + sname,
            TrainMode::kFae, opt, server);
      }
    }
  }

  SystemSpec cluster = MakeMultiNodeCluster(2, 4);
  cluster.hot_embedding_budget = cfg.gpu_memory_budget;
  for (ShardingMode sharding : {ShardingMode::kReplicate, ShardingMode::kLpt}) {
    for (PipelineMode pmode : {PipelineMode::kOff, PipelineMode::kOverlap}) {
      TrainOptions opt = cost_only;
      opt.per_gpu_batch = 16;
      opt.pipeline = pmode;
      opt.sharding = sharding;
      run(std::string("fae/2x4/") +
              std::string(ShardingModeName(sharding)) + "/" +
              std::string(PipelineModeName(pmode)),
          TrainMode::kFae, opt, cluster);
    }
  }

  for (PipelineMode pmode : {PipelineMode::kOff, PipelineMode::kOverlap}) {
    TrainOptions opt = Fixture::Options();
    opt.pipeline = pmode;
    opt.stale_threshold = 0.5;
    opt.stale_min_visits = 2;
    opt.stale_skip = StaleSkipMode::kAll;
    run(std::string("baseline/stale_all/") +
            std::string(PipelineModeName(pmode)),
        TrainMode::kBaseline, opt, server);
    opt.stale_skip = StaleSkipMode::kCold;
    run(std::string("fae/stale_cold/") + std::string(PipelineModeName(pmode)),
        TrainMode::kFae, opt, server);
  }

  // int8 cold rows need a plan calibrated for them (the budget credit).
  FaeConfig int8_cfg = cfg;
  int8_cfg.cold_precision = ColdPrecision::kInt8;
  for (PipelineMode pmode : {PipelineMode::kOff, PipelineMode::kOverlap}) {
    TrainOptions opt = cost_only;
    opt.pipeline = pmode;
    opt.cold_precision = ColdPrecision::kInt8;
    auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), server, opt);
    auto r = trainer.TrainFae(f.dataset, f.split, int8_cfg);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    out += RenderCosts(
        std::string("fae/int8/") + std::string(PipelineModeName(pmode)), *r);
  }

  CheckAgainstGolden(out, "overlay_costs.txt");
}

// One line per placement run: the modeled wall, the average GPU watts, and
// every Timeline::State field — the per-phase seconds, the busy times the
// power model reads, and the link bytes — which checkpoints carry.
std::string RenderPlacement(const std::string& name, const TrainReport& r) {
  const Timeline::State s = r.timeline.state();
  std::string out = StrFormat("%s %.17g %.17g", name.c_str(),
                              r.modeled_seconds, r.avg_gpu_watts);
  for (double seconds : s.seconds) out += StrFormat(" %.17g", seconds);
  out += StrFormat(" %.17g %.17g %llu %llu %llu\n", s.cpu_busy, s.gpu_busy,
                   static_cast<unsigned long long>(s.pcie_bytes),
                   static_cast<unsigned long long>(s.nvlink_bytes),
                   static_cast<unsigned long long>(s.network_bytes));
  return out;
}

// Pins every placement's modeled cost, the comparators included, at 1 to 4
// GPUs (3 is where an uneven split of the batch or the tables rounds), and
// the hybrid drivers on a two-node cluster. Cost-only, overlays off except
// FAE's sharded placement.
TEST(GoldenCurveTest, PlacementCostsMatchFixture) {
  Fixture f;
  const FaeConfig cfg = Fixture::Config();
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::string out =
      "# fae placement costs v1: name modeled_seconds avg_gpu_watts";
  for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
    out += ' ';
    out += PhaseName(static_cast<Phase>(p));
  }
  out += " cpu_busy gpu_busy pcie_bytes nvlink_bytes network_bytes\n";
  TrainOptions cost_only = Fixture::Options();
  cost_only.run_math = false;
  TrainOptions lpt = cost_only;
  lpt.sharding = ShardingMode::kLpt;
  auto run = [&](const std::string& name, const TrainOptions& opt,
                 const SystemSpec& sys,
                 const std::function<StatusOr<TrainReport>(Trainer&)>& drive) {
    auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
    Trainer trainer(model.get(), sys, opt);
    StatusOr<TrainReport> r = drive(trainer);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    out += RenderPlacement(name, *r);
  };
  auto baseline = [&](Trainer& t) {
    return t.TrainBaseline(f.dataset, f.split);
  };
  auto fae = [&](Trainer& t) {
    return t.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  };
  auto hybrid = [&](const std::string& where, const SystemSpec& sys) {
    run("baseline/" + where, cost_only, sys, baseline);
    run("fae/" + where, cost_only, sys, fae);
    run("fae_lpt/" + where, lpt, sys, fae);
  };

  for (int gpus : {1, 2, 3, 4}) {
    const SystemSpec server = MakePaperServer(gpus);
    const std::string where = StrFormat("%dgpu", gpus);
    hybrid(where, server);
    run("nvopt/" + where, cost_only, server,
        [&](Trainer& t) { return t.TrainNvOpt(f.dataset, f.split); });
    run("model_parallel/" + where, cost_only, server,
        [&](Trainer& t) { return t.TrainModelParallel(f.dataset, f.split); });
    run("gpu_cache/" + where, cost_only, server, [&](Trainer& t) {
      return t.TrainGpuCache(f.dataset, f.split, *plan);
    });
  }
  SystemSpec cluster = MakeMultiNodeCluster(2, 4);
  cluster.hot_embedding_budget = cfg.gpu_memory_budget;
  hybrid("2x4", cluster);

  CheckAgainstGolden(out, "placement_costs.txt");
}

}  // namespace
}  // namespace fae
