#include "engine/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <iterator>

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
      : schema(MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 71}).Generate(2400)),
        split(dataset.MakeSplit(0.15)) {}

  std::unique_ptr<RecModel> NewModel(uint64_t seed = 5) const {
    return MakeModel(schema, /*full_size=*/false, seed);
  }

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

void ExpectSameCurve(const std::vector<CurvePoint>& a,
                     const std::vector<CurvePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iteration, b[i].iteration) << "point " << i;
    EXPECT_EQ(a[i].train_loss, b[i].train_loss) << "point " << i;
    EXPECT_EQ(a[i].train_acc, b[i].train_acc) << "point " << i;
    EXPECT_EQ(a[i].test_loss, b[i].test_loss) << "point " << i;
    EXPECT_EQ(a[i].test_acc, b[i].test_acc) << "point " << i;
  }
}

// The golden resume property: crash mid-run, resume from the periodic
// checkpoint, and the loss curve (and modeled time) match an uninterrupted
// run bit for bit.
TEST(CheckpointTest, BaselineResumeReproducesRunExactly) {
  Fixture f;
  const std::string path = TempPath("fae_resume_baseline.faec");

  auto model_a = f.NewModel(5);
  Trainer uninterrupted(model_a.get(), MakePaperServer(1), Fixture::Options());
  auto a = uninterrupted.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_FALSE(a->interrupted);

  TrainOptions opt = Fixture::Options();
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 5;
  auto crash_plan = FaultInjector::Parse("crash@13");
  ASSERT_TRUE(crash_plan.ok());
  opt.fault_injector = &*crash_plan;
  auto model_b = f.NewModel(5);
  Trainer crashing(model_b.get(), MakePaperServer(1), opt);
  auto b = crashing.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->interrupted);
  EXPECT_EQ(b->num_batches, 13u);
  EXPECT_EQ(b->faults.crashes, 1u);

  // Resume into a model with a *different* init seed: every weight must
  // come from the checkpoint for the curves to match.
  TrainOptions resume_opt = Fixture::Options();
  resume_opt.checkpoint.path = path;
  resume_opt.checkpoint.every_steps = 5;
  resume_opt.checkpoint.resume = true;
  auto model_c = f.NewModel(999);
  Trainer resumed(model_c.get(), MakePaperServer(1), resume_opt);
  auto c = resumed.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(c->resumed);
  EXPECT_EQ(c->resumed_at, 10u);  // last multiple of every_steps before 13
  EXPECT_EQ(c->num_batches, a->num_batches);
  ExpectSameCurve(a->curve, c->curve);
  EXPECT_DOUBLE_EQ(c->final_test_loss, a->final_test_loss);
  EXPECT_DOUBLE_EQ(c->final_test_acc, a->final_test_acc);
  EXPECT_DOUBLE_EQ(c->modeled_seconds, a->modeled_seconds);
  (void)RemoveFile(path);
}

// Same golden property for FAE, whose checkpoints land at schedule-chunk
// boundaries (master authoritative, replicas re-pulled on resume). Under
// kFull the modeled sync traffic is also identical; under kDirty the resume
// costs at most one extra full-slice pull while the math stays identical.
void RunFaeResumeGolden(SyncStrategy strategy) {
  Fixture f;
  // Unique per strategy: the two instantiations run concurrently under
  // a parallel ctest.
  const std::string path = TempPath(
      strategy == SyncStrategy::kFull ? "fae_resume_fae_full.faec"
                                      : "fae_resume_fae_dirty.faec");
  const FaeConfig cfg = Fixture::Config();
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  TrainOptions base_opt = Fixture::Options();
  base_opt.sync_strategy = strategy;

  auto model_a = f.NewModel(5);
  Trainer uninterrupted(model_a.get(), MakePaperServer(1), base_opt);
  auto a = uninterrupted.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_GT(a->num_batches, 45u);  // the crash step must fall inside the run

  TrainOptions opt = base_opt;
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 1;  // save at every chunk boundary
  auto crash_plan = FaultInjector::Parse("crash@45");
  ASSERT_TRUE(crash_plan.ok());
  opt.fault_injector = &*crash_plan;
  auto model_b = f.NewModel(5);
  Trainer crashing(model_b.get(), MakePaperServer(1), opt);
  auto b = crashing.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->interrupted);
  EXPECT_EQ(b->faults.crashes, 1u);

  TrainOptions resume_opt = base_opt;
  resume_opt.checkpoint.path = path;
  resume_opt.checkpoint.resume = true;
  auto model_c = f.NewModel(999);
  Trainer resumed(model_c.get(), MakePaperServer(1), resume_opt);
  auto c = resumed.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(c->resumed);
  EXPECT_LE(c->resumed_at, 45u);
  EXPECT_EQ(c->num_batches, a->num_batches);
  ExpectSameCurve(a->curve, c->curve);
  EXPECT_DOUBLE_EQ(c->final_test_loss, a->final_test_loss);
  if (strategy == SyncStrategy::kFull) {
    EXPECT_EQ(c->sync_bytes, a->sync_bytes);
    EXPECT_DOUBLE_EQ(c->modeled_seconds, a->modeled_seconds);
  } else {
    // The first hot chunk after a resume re-pulls the full slice instead
    // of only the dirty rows.
    EXPECT_GE(c->sync_bytes, a->sync_bytes);
    EXPECT_LE(c->sync_bytes, a->sync_bytes + a->hot_bytes);
  }
  (void)RemoveFile(path);
}

TEST(CheckpointTest, FaeResumeReproducesRunExactlyFullSync) {
  RunFaeResumeGolden(SyncStrategy::kFull);
}

TEST(CheckpointTest, FaeResumeReproducesRunExactlyDirtySync) {
  RunFaeResumeGolden(SyncStrategy::kDirty);
}

TEST(CheckpointTest, FaultSuiteCompletesWithStats) {
  Fixture f;
  TrainOptions opt = Fixture::Options();
  opt.epochs = 1;
  auto plan = FaultInjector::Parse("device@3,stall@5:0.05,corrupt@8,device@10x3");
  ASSERT_TRUE(plan.ok());
  opt.fault_injector = &*plan;
  auto model = f.NewModel();
  Trainer trainer(model.get(), MakePaperServer(2), opt);
  auto report = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->interrupted);
  EXPECT_EQ(report->faults.device_faults, 2u);
  EXPECT_EQ(report->faults.retries, 4u);  // 1 + 3 attempts
  EXPECT_EQ(report->faults.link_stalls, 1u);
  EXPECT_EQ(report->faults.corrupt_syncs, 1u);
  EXPECT_EQ(report->faults.crashes, 0u);
  EXPECT_GT(report->timeline.seconds(Phase::kFaultRecovery), 0.0);
  // The corrupt-sync recovery re-pulled the whole hot slice.
  EXPECT_GT(report->sync_bytes, 0u);
  EXPECT_GT(report->final_test_acc, 0.4);
}

TEST(CheckpointTest, PermanentDeviceFaultExhaustsRetryBudget) {
  Fixture f;
  TrainOptions opt = Fixture::Options();
  opt.epochs = 1;
  auto plan = FaultInjector::Parse("device@5x7");  // beyond kMaxFaultRetries
  ASSERT_TRUE(plan.ok());
  opt.fault_injector = &*plan;
  auto model = f.NewModel();
  Trainer trainer(model.get(), MakePaperServer(1), opt);
  auto report = trainer.TrainBaseline(f.dataset, f.split);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(CheckpointTest, ResumeRejectsMismatchedRun) {
  Fixture f;
  const std::string path = TempPath("fae_resume_mismatch.faec");

  TrainOptions opt = Fixture::Options();
  opt.epochs = 1;
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 5;
  auto model = f.NewModel(5);
  Trainer writer(model.get(), MakePaperServer(1), opt);
  ASSERT_TRUE(writer.TrainBaseline(f.dataset, f.split).ok());

  // Different numerics (learning rate) => different options fingerprint.
  {
    TrainOptions other = opt;
    other.checkpoint.resume = true;
    other.dense_lr = 0.05f;
    auto m = f.NewModel(5);
    Trainer t(m.get(), MakePaperServer(1), other);
    auto r = t.TrainBaseline(f.dataset, f.split);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  // A baseline checkpoint cannot resume an FAE run.
  {
    TrainOptions other = opt;
    other.checkpoint.resume = true;
    auto m = f.NewModel(5);
    Trainer t(m.get(), MakePaperServer(1), other);
    auto r = t.TrainFae(f.dataset, f.split, Fixture::Config());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  // Missing checkpoint file.
  {
    TrainOptions other = opt;
    other.checkpoint.path = TempPath("fae_resume_missing.faec");
    other.checkpoint.resume = true;
    auto m = f.NewModel(5);
    Trainer t(m.get(), MakePaperServer(1), other);
    auto r = t.TrainBaseline(f.dataset, f.split);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }
  // Resume without a path.
  {
    TrainOptions other = opt;
    other.checkpoint.path.clear();
    other.checkpoint.resume = true;
    auto m = f.NewModel(5);
    Trainer t(m.get(), MakePaperServer(1), other);
    auto r = t.TrainBaseline(f.dataset, f.split);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  (void)RemoveFile(path);
}

TEST(CheckpointTest, IoRoundTripRestoresEveryField) {
  Fixture f;
  auto model = f.NewModel(5);
  const std::string path = TempPath("fae_ckpt_roundtrip.faec");

  TrainerCheckpoint ck;
  ck.mode = 1;
  ck.dataset_fingerprint = 0xfeedfacecafef00dULL;
  ck.options_fingerprint = 0x123456789abcdef0ULL;
  ck.epoch = 3;
  ck.iteration = 1234;
  ck.batch_in_epoch = 17;
  ck.hot_batches = 40;
  ck.cold_batches = 21;
  ck.sync_bytes = 1 << 20;
  Xoshiro256 rng(123);
  rng.NextGaussian();  // populate the cached-gaussian half of the state
  ck.rng = rng.state();
  RunningMetric metric;
  metric.Observe(1.5, 3, 10);
  metric.Observe(0.5, 7, 10);
  ck.metric = metric.state();
  ck.window.loss_sum = 2.5;
  ck.window.samples = 4;
  ck.scheduler.rate = 37.5;
  ck.scheduler.issued_hot = 9;
  ck.scheduler.transitions = 4;
  ck.scheduler.has_prev_loss = true;
  ck.scheduler.prev_loss = 0.61;
  Timeline tl;
  tl.Charge(Phase::kEmbeddingSync, 1.25);
  tl.Charge(Phase::kFaultRecovery, 0.75);
  tl.AddPcieBytes(4096);
  ck.timeline = tl.state();
  ck.curve = {{10, 0.9, 0.5, 0.8, 0.55}, {20, 0.7, 0.6, 0.65, 0.62}};

  ASSERT_TRUE(CheckpointIo::Save(path, ck, *model).ok());

  auto restored_model = f.NewModel(999);
  auto loaded = CheckpointIo::Load(path, *restored_model);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->mode, ck.mode);
  EXPECT_EQ(loaded->dataset_fingerprint, ck.dataset_fingerprint);
  EXPECT_EQ(loaded->options_fingerprint, ck.options_fingerprint);
  EXPECT_EQ(loaded->epoch, 3u);
  EXPECT_EQ(loaded->iteration, 1234u);
  EXPECT_EQ(loaded->batch_in_epoch, 17u);
  EXPECT_EQ(loaded->hot_batches, 40u);
  EXPECT_EQ(loaded->cold_batches, 21u);
  EXPECT_EQ(loaded->sync_bytes, 1u << 20);
  EXPECT_TRUE(loaded->rng == ck.rng);
  EXPECT_DOUBLE_EQ(loaded->metric.loss_sum, ck.metric.loss_sum);
  EXPECT_EQ(loaded->metric.correct, ck.metric.correct);
  EXPECT_EQ(loaded->metric.samples, ck.metric.samples);
  EXPECT_DOUBLE_EQ(loaded->window.loss_sum, 2.5);
  EXPECT_DOUBLE_EQ(loaded->scheduler.rate, 37.5);
  EXPECT_EQ(loaded->scheduler.issued_hot, 9u);
  EXPECT_EQ(loaded->scheduler.transitions, 4u);
  EXPECT_TRUE(loaded->scheduler.has_prev_loss);
  EXPECT_DOUBLE_EQ(loaded->scheduler.prev_loss, 0.61);
  EXPECT_DOUBLE_EQ(loaded->timeline.seconds[static_cast<size_t>(
                       Phase::kEmbeddingSync)],
                   1.25);
  EXPECT_DOUBLE_EQ(loaded->timeline.seconds[static_cast<size_t>(
                       Phase::kFaultRecovery)],
                   0.75);
  EXPECT_EQ(loaded->timeline.pcie_bytes, 4096u);
  ASSERT_EQ(loaded->curve.size(), 2u);
  EXPECT_EQ(loaded->curve[1].iteration, 20u);
  EXPECT_DOUBLE_EQ(loaded->curve[1].test_loss, 0.65);
  (void)RemoveFile(path);
}

TEST(CheckpointTest, IoRejectsCorruptionAndTruncation) {
  Fixture f;
  auto model = f.NewModel(5);
  const std::string path = TempPath("fae_ckpt_corrupt.faec");
  TrainerCheckpoint ck;
  ck.iteration = 99;
  ASSERT_TRUE(CheckpointIo::Save(path, ck, *model).ok());
  const auto size = std::filesystem::file_size(path);

  // Flip one byte in the middle: the whole-file CRC must catch it before
  // anything (model weights included) is restored.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x20;
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }
  auto m = f.NewModel(999);
  auto corrupt = CheckpointIo::Load(path, *m);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);

  ASSERT_TRUE(CheckpointIo::Save(path, ck, *model).ok());
  std::filesystem::resize_file(path, size - 7);
  auto truncated = CheckpointIo::Load(path, *m);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);

  (void)RemoveFile(path);
  EXPECT_EQ(CheckpointIo::Load(TempPath("fae_ckpt_gone.faec"), *m)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, IoRejectsOtherVersions) {
  // A checkpoint written under an older layout must be refused by its
  // version word, not misparsed. Rewrite a valid file's version to 3 and
  // refresh the CRC footer so the version check — not the checksum — is
  // what rejects it.
  Fixture f;
  auto model = f.NewModel(5);
  const std::string path = TempPath("fae_ckpt_v3.faec");
  ASSERT_TRUE(CheckpointIo::Save(path, TrainerCheckpoint{}, *model).ok());
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(4);  // after the magic word
    const uint32_t old_version = 3;
    file.write(reinterpret_cast<const char*>(&old_version),
               sizeof(old_version));
  }
  {
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-4, std::ios::end);
    file.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  auto m = f.NewModel(999);
  auto loaded = CheckpointIo::Load(path, *m);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("version 3"),
            std::string_view::npos)
      << loaded.status().ToString();
}

TEST(CheckpointTest, OverBudgetPlanDegradesGracefully) {
  Fixture f;
  const FaeConfig cfg = Fixture::Config();
  FaePipeline pipeline(cfg);
  auto plan = pipeline.Prepare(f.dataset, f.split.train);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->hot_bytes, 0u);

  TrainOptions opt = Fixture::Options();
  opt.epochs = 1;
  opt.run_math = false;
  SystemSpec sys = MakePaperServer(1);
  sys.hot_embedding_budget = plan->hot_bytes / 2;
  auto model = f.NewModel();
  Trainer trainer(model.get(), sys, opt);
  auto report = trainer.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degraded);
  EXPECT_GT(report->demoted_rows, 0u);
  EXPECT_GT(report->fallback_inputs, 0u);
  EXPECT_LE(report->hot_bytes, sys.hot_embedding_budget);
  EXPECT_LT(report->hot_fraction, plan->inputs.HotFraction());
  EXPECT_GT(report->num_batches, 0u);
}

}  // namespace
}  // namespace fae
