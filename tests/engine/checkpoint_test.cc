#include "engine/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/trainer.h"
#include "engine/resume_golden.h"
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
// checkpoint chain, and the loss curve (and modeled time) match an
// uninterrupted run bit for bit — from base + deltas and from the base
// alone.
TEST(CheckpointTest, BaselineResumeReproducesRunExactly) {
  Fixture f;
  auto model_a = f.NewModel(5);
  Trainer uninterrupted(model_a.get(), MakePaperServer(1), Fixture::Options());
  auto a = uninterrupted.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_FALSE(a->interrupted);

  const test::ResumeRuns runs = test::CrashAndResume(
      Fixture::Options(), TempPath("fae_resume_baseline.faec"), 5,
      "crash@13", [&](const TrainOptions& opt, uint64_t seed) {
        auto model = f.NewModel(seed);
        Trainer trainer(model.get(), MakePaperServer(1), opt);
        return trainer.TrainBaseline(f.dataset, f.split);
      });
  EXPECT_EQ(runs.crashed.num_batches, 13u);
  EXPECT_EQ(runs.crashed.faults.crashes, 1u);
  // The last multiple of every_steps before 13 (a delta), then the base.
  EXPECT_EQ(runs.from_chain.resumed_at, 10u);
  EXPECT_EQ(runs.from_base.resumed_at, 5u);
  for (const TrainReport* c : {&runs.from_chain, &runs.from_base}) {
    EXPECT_EQ(c->num_batches, a->num_batches);
    ExpectSameCurve(a->curve, c->curve);
    EXPECT_DOUBLE_EQ(c->final_test_loss, a->final_test_loss);
    EXPECT_DOUBLE_EQ(c->final_test_acc, a->final_test_acc);
    EXPECT_DOUBLE_EQ(c->modeled_seconds, a->modeled_seconds);
  }
}

// Same golden property for FAE, whose checkpoints land at schedule-chunk
// boundaries (master authoritative, replicas re-pulled on resume). Under
// kFull the modeled sync traffic is also identical; under kDirty the resume
// costs at most one extra full-slice pull while the math stays identical.
void RunFaeResumeGolden(SyncStrategy strategy) {
  Fixture f;
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

  // Unique per strategy: the two instantiations run concurrently under
  // a parallel ctest. Saves land at every chunk boundary.
  const test::ResumeRuns runs = test::CrashAndResume(
      base_opt,
      TempPath(strategy == SyncStrategy::kFull ? "fae_resume_fae_full.faec"
                                               : "fae_resume_fae_dirty.faec"),
      1, "crash@45", [&](const TrainOptions& opt, uint64_t seed) {
        auto model = f.NewModel(seed);
        Trainer trainer(model.get(), MakePaperServer(1), opt);
        return trainer.TrainFaeWithPlan(f.dataset, f.split, cfg, *plan);
      });
  EXPECT_EQ(runs.crashed.faults.crashes, 1u);
  for (const TrainReport* c : {&runs.from_chain, &runs.from_base}) {
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
  }
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
  EXPECT_EQ(loaded->state.mode, ck.mode);
  EXPECT_EQ(loaded->state.dataset_fingerprint, ck.dataset_fingerprint);
  EXPECT_EQ(loaded->state.options_fingerprint, ck.options_fingerprint);
  EXPECT_EQ(loaded->state.epoch, 3u);
  EXPECT_EQ(loaded->state.iteration, 1234u);
  EXPECT_EQ(loaded->state.batch_in_epoch, 17u);
  EXPECT_EQ(loaded->state.hot_batches, 40u);
  EXPECT_EQ(loaded->state.cold_batches, 21u);
  EXPECT_EQ(loaded->state.sync_bytes, 1u << 20);
  EXPECT_TRUE(loaded->state.rng == ck.rng);
  EXPECT_DOUBLE_EQ(loaded->state.metric.loss_sum, ck.metric.loss_sum);
  EXPECT_EQ(loaded->state.metric.correct, ck.metric.correct);
  EXPECT_EQ(loaded->state.metric.samples, ck.metric.samples);
  EXPECT_DOUBLE_EQ(loaded->state.window.loss_sum, 2.5);
  EXPECT_DOUBLE_EQ(loaded->state.scheduler.rate, 37.5);
  EXPECT_EQ(loaded->state.scheduler.issued_hot, 9u);
  EXPECT_EQ(loaded->state.scheduler.transitions, 4u);
  EXPECT_TRUE(loaded->state.scheduler.has_prev_loss);
  EXPECT_DOUBLE_EQ(loaded->state.scheduler.prev_loss, 0.61);
  EXPECT_DOUBLE_EQ(loaded->state.timeline.seconds[static_cast<size_t>(
                       Phase::kEmbeddingSync)],
                   1.25);
  EXPECT_DOUBLE_EQ(loaded->state.timeline.seconds[static_cast<size_t>(
                       Phase::kFaultRecovery)],
                   0.75);
  EXPECT_EQ(loaded->state.timeline.pcie_bytes, 4096u);
  ASSERT_EQ(loaded->state.curve.size(), 2u);
  EXPECT_EQ(loaded->state.curve[1].iteration, 20u);
  EXPECT_DOUBLE_EQ(loaded->state.curve[1].test_loss, 0.65);
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

/// Every weight of `model`, dense parameters then tables, as bytes.
std::string ModelBytes(RecModel& model) {
  std::string bytes;
  for (const Parameter* p : model.DenseParams()) {
    bytes.append(reinterpret_cast<const char*>(p->value.data()),
                 p->value.numel() * sizeof(float));
  }
  for (const EmbeddingTable& t : model.tables()) {
    bytes.append(reinterpret_cast<const char*>(t.raw().data()),
                 t.raw().size() * sizeof(float));
  }
  return bytes;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A chain of a base and three deltas written through CheckpointChain at
/// iterations 10, 20, 30 and 40. Before each delta a few rows of two
/// tables and one dense weight change; `after[k]` is the model's bytes
/// after save k (0 = the base).
struct Chain {
  Chain(const Fixture& f, const std::string& chain_path) : path(chain_path) {
    test::RemoveChain(path);
    auto model = f.NewModel(5);
    CheckpointChain chain(path);
    std::vector<std::vector<uint32_t>> written(model->tables().size());
    for (uint64_t k = 0; k < 4; ++k) {
      if (k > 0) {
        for (size_t t : {size_t{0}, size_t{3}}) {
          EmbeddingTable& table = model->tables()[t];
          for (uint32_t row : {uint32_t(k), uint32_t(2 * k + 5)}) {
            const uint32_t r = row % static_cast<uint32_t>(table.rows());
            table.row(r)[0] += 0.5f * static_cast<float>(k);
            written[t].push_back(r);
          }
        }
        model->DenseParams()[0]->value.data()[0] += 1.0f;
      }
      TrainerCheckpoint ck;
      ck.iteration = 10 * (k + 1);
      auto saved = chain.Save(ck, *model, written);
      EXPECT_TRUE(saved.ok()) << saved.status().ToString();
      EXPECT_EQ(saved->kind, k == 0 ? CheckpointChain::Kind::kBase
                                    : CheckpointChain::Kind::kDelta);
      after.push_back(ModelBytes(*model));
      for (std::vector<uint32_t>& rows : written) rows.clear();
    }
  }
  ~Chain() { test::RemoveChain(path); }

  std::string delta(uint64_t n) const {
    return CheckpointIo::DeltaPath(path, n);
  }

  /// Loads the chain into a fresh model and checks that it restored
  /// exactly the first `deltas` deltas, with `damaged` (when non-empty)
  /// named by a DataLoss.
  void ExpectLoads(const Fixture& f, uint64_t deltas,
                   const std::string& damaged,
                   const std::string& label) const {
    auto model = f.NewModel(999);
    auto loaded = CheckpointIo::Load(path, *model);
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->deltas, deltas) << label;
    EXPECT_EQ(loaded->state.iteration, 10 * (deltas + 1)) << label;
    EXPECT_TRUE(ModelBytes(*model) == after[deltas]) << label;
    if (damaged.empty()) {
      EXPECT_TRUE(loaded->damage.ok())
          << label << ": " << loaded->damage.ToString();
    } else {
      EXPECT_EQ(loaded->damage.code(), StatusCode::kDataLoss) << label;
      EXPECT_NE(loaded->damage.message().find(damaged), std::string::npos)
          << label << ": " << loaded->damage.ToString();
    }
  }

  std::string path;
  std::vector<std::string> after;
};

TEST(CheckpointTest, ChainLoadsBaseThenDeltasInOrder) {
  Fixture f;
  const Chain chain(f, TempPath("fae_chain_intact.faec"));
  EXPECT_EQ(*CheckpointIo::ChainFiles(chain.path),
            (std::vector<std::string>{chain.path, chain.delta(1),
                                      chain.delta(2), chain.delta(3)}));
  // A delta holds the trainer state, the dense parameters and only the
  // rows written since the previous save.
  EXPECT_LT(std::filesystem::file_size(chain.delta(1)) * 4,
            std::filesystem::file_size(chain.path));
  chain.ExpectLoads(f, 3, "", "intact");
  // A leftover temp file of a delta save that died before its commit is
  // not part of the chain.
  WriteAll(chain.delta(4) + ".tmp", ReadAll(chain.delta(3)).substr(0, 100));
  chain.ExpectLoads(f, 3, "", "interrupted delta save");
  (void)RemoveFile(chain.delta(4) + ".tmp");
  // The base alone is a complete checkpoint.
  for (uint64_t n : {3, 2, 1}) (void)RemoveFile(chain.delta(n));
  chain.ExpectLoads(f, 0, "", "base alone");
}

TEST(CheckpointTest, ChainResumesFromItsConsistentPrefix) {
  Fixture f;
  const Chain chain(f, TempPath("fae_chain_damaged.faec"));
  const std::string pristine = ReadAll(chain.delta(2));

  // Every flipped byte of delta 2 stops the chain after delta 1: each of
  // its first and last 32 bytes (header and footer) and a hundred more
  // spread across its body.
  const size_t size = pristine.size();
  const size_t stride = std::max<size_t>(1, size / 100);
  for (size_t at = 0; at < size;
       at += at < 32 || at + 33 > size ? 1 : stride) {
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
    WriteAll(chain.delta(2), bytes);
    chain.ExpectLoads(f, 1, chain.delta(2), "flip at " + std::to_string(at));
    if (HasFatalFailure()) return;
  }
  // So does a truncated delta 2, down to nothing.
  for (size_t keep : {size_t{0}, size_t{9}, size / 2, size - 1}) {
    WriteAll(chain.delta(2), pristine.substr(0, keep));
    chain.ExpectLoads(f, 1, chain.delta(2),
                      "truncated to " + std::to_string(keep));
  }
  // A delta save torn at its final name (what a crash could leave without
  // the fsync before the rename) is damage too.
  WriteAll(chain.delta(2), pristine);
  WriteAll(chain.delta(4), ReadAll(chain.delta(3)).substr(0, 200));
  chain.ExpectLoads(f, 3, chain.delta(4), "torn delta 4");
  (void)RemoveFile(chain.delta(4));
  // A missing delta with a later one on disk: damage naming the gap.
  (void)RemoveFile(chain.delta(2));
  chain.ExpectLoads(f, 1, chain.delta(2), "missing delta 2");
  // A missing last delta is indistinguishable from one never written.
  WriteAll(chain.delta(2), pristine);
  (void)RemoveFile(chain.delta(3));
  chain.ExpectLoads(f, 2, "", "missing last delta");
}

// A delta that cannot be read is not damage: the load fails with the
// reader's error instead of stopping the chain there, so a transient read
// error never costs the deltas after it (the resumed run's first save
// would write a base and delete them). A directory in the delta's place
// stands in for the read error: it opens, but every read fails, for any
// user.
TEST(CheckpointTest, ChainLoadFailsOnAnUnreadableDelta) {
  Fixture f;
  const Chain chain(f, TempPath("fae_chain_unreadable.faec"));
  const std::string pristine = ReadAll(chain.delta(2));
  ASSERT_TRUE(RemoveFile(chain.delta(2)).ok());
  ASSERT_TRUE(std::filesystem::create_directory(chain.delta(2)));
  auto model = f.NewModel(999);
  auto loaded = CheckpointIo::Load(chain.path, *model);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(chain.delta(2)), std::string::npos)
      << loaded.status().ToString();
  // The chain on disk is as it was: with the delta readable again, all of
  // it loads.
  std::filesystem::remove(chain.delta(2));
  WriteAll(chain.delta(2), pristine);
  chain.ExpectLoads(f, 3, "", "readable again");
}

TEST(CheckpointTest, ChainRefusesUnknownVersionsAndIgnoresStaleDeltas) {
  Fixture f;
  const Chain chain(f, TempPath("fae_chain_versions.faec"));
  // A delta of another container version is damage that names the
  // version and the file (the CRC footer is refreshed, so the version word
  // is what stops it).
  const std::string pristine = ReadAll(chain.delta(2));
  std::string bytes = pristine;
  const uint32_t future = 6;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  WriteAll(chain.delta(2), bytes);
  chain.ExpectLoads(f, 1, "version 6", "future version");
  chain.ExpectLoads(f, 1, chain.delta(2), "future version");
  WriteAll(chain.delta(2), pristine);

  // A new base removes the old deltas once it has committed. Were that
  // interrupted, a delta naming the old base would be left over: it ends
  // the chain without damage.
  const std::string stale = ReadAll(chain.delta(1));
  auto model = f.NewModel(5);
  TrainerCheckpoint ck;
  ck.iteration = 50;
  ASSERT_TRUE(CheckpointIo::Save(chain.path, ck, *model).ok());
  EXPECT_EQ(*CheckpointIo::ChainFiles(chain.path),
            std::vector<std::string>{chain.path});
  WriteAll(chain.delta(1), stale);
  auto fresh = f.NewModel(999);
  auto loaded = CheckpointIo::Load(chain.path, *fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->deltas, 0u);
  EXPECT_TRUE(loaded->damage.ok()) << loaded->damage.ToString();
  EXPECT_TRUE(ModelBytes(*fresh) == ModelBytes(*model));
}

// A resume from a damaged chain continues from its consistent prefix,
// reports the damage, reproduces the uninterrupted run, and its first save
// writes a fresh base that clears the damaged deltas away.
TEST(CheckpointTest, ResumeFromDamagedChainStartsAFreshBase) {
  Fixture f;
  auto model_a = f.NewModel(5);
  Trainer uninterrupted(model_a.get(), MakePaperServer(1), Fixture::Options());
  auto a = uninterrupted.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  const std::string path = TempPath("fae_resume_damaged.faec");
  test::RemoveChain(path);
  TrainOptions opt = Fixture::Options();
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 5;
  auto crash_plan = FaultInjector::Parse("crash@18");
  ASSERT_TRUE(crash_plan.ok());
  opt.fault_injector = &*crash_plan;
  {
    auto model = f.NewModel(5);
    Trainer crashing(model.get(), MakePaperServer(1), opt);
    auto b = crashing.TrainBaseline(f.dataset, f.split);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(b->checkpoint_delta_saves, 2u);  // saves at 5, 10 and 15
  }
  const std::string bad = CheckpointIo::DeltaPath(path, 1);
  std::string bytes = ReadAll(bad);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  WriteAll(bad, bytes);

  TrainOptions resume_opt = Fixture::Options();
  resume_opt.checkpoint.path = path;
  resume_opt.checkpoint.every_steps = 5;
  resume_opt.checkpoint.resume = true;
  auto model_c = f.NewModel(999);
  Trainer resumed(model_c.get(), MakePaperServer(1), resume_opt);
  auto c = resumed.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->resumed_at, 5u);
  EXPECT_EQ(c->resumed_deltas, 0u);
  EXPECT_EQ(c->resume_damage.code(), StatusCode::kDataLoss);
  EXPECT_NE(c->resume_damage.message().find(bad), std::string::npos)
      << c->resume_damage.ToString();
  ExpectSameCurve(a->curve, c->curve);
  EXPECT_DOUBLE_EQ(c->final_test_loss, a->final_test_loss);
  EXPECT_GT(c->checkpoint_base_saves, 0u);

  // What is on disk now is the resumed run's own chain, whole.
  auto model_d = f.NewModel(999);
  auto loaded = CheckpointIo::Load(path, *model_d);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->damage.ok()) << loaded->damage.ToString();
  EXPECT_GT(loaded->state.iteration, 15u);
  test::RemoveChain(path);
}

// A cost-only run writes no rows, so its deltas hold the trainer state and
// the dense parameters alone (a new base follows once they add up to the
// base), and the chain loads.
TEST(CheckpointTest, CostOnlyRunSavesDeltasWithoutRows) {
  Fixture f;
  const std::string path = TempPath("fae_ckpt_cost_only.faec");
  TrainOptions opt = Fixture::Options();
  opt.run_math = false;
  opt.checkpoint.path = path;
  opt.checkpoint.every_steps = 5;
  auto model = f.NewModel(5);
  Trainer trainer(model.get(), MakePaperServer(1), opt);
  auto report = trainer.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->checkpoint_base_saves, 0u);
  EXPECT_GT(report->checkpoint_delta_saves, report->checkpoint_base_saves);
  auto restored = f.NewModel(999);
  auto loaded = CheckpointIo::Load(path, *restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded->deltas, 0u);
  EXPECT_TRUE(loaded->damage.ok()) << loaded->damage.ToString();
  EXPECT_TRUE(ModelBytes(*restored) == ModelBytes(*model));
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
