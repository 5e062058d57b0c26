// Bit-exactness of the flat SoA data path: the step the trainer runs on
// zero-copy BatchViews must match the materialized two-pass step for DLRM
// and TBSM, and crash-safe resume must stay exact on the sequential (TBSM)
// workload too.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "data/batch_view.h"
#include "data/synthetic.h"
#include "engine/metrics.h"
#include "engine/step_executor.h"
#include "engine/trainer.h"
#include "materialized_step.h"
#include "models/factory.h"
#include "tensor/sgd.h"
#include "test_temp_dir.h"

namespace fae {
namespace {

using test::TempPath;

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

void ExpectSameTables(const RecModel& a, const RecModel& b) {
  ASSERT_EQ(a.tables().size(), b.tables().size());
  for (size_t t = 0; t < a.tables().size(); ++t) {
    const std::vector<float>& ra = a.tables()[t].raw();
    const std::vector<float>& rb = b.tables()[t].raw();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t k = 0; k < ra.size(); ++k) {
      ASSERT_EQ(ra[k], rb[k]) << "table " << t << " element " << k;
    }
  }
}

/// True when some row appears more than once in `indices`.
bool HasRepeatedRow(std::span<const uint32_t> indices) {
  std::vector<uint32_t> sorted(indices.begin(), indices.end());
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

/// The trainer's step (StepExecutor::MathStep, whose sparse backward is the
/// fused scatter + update) must match the materialized two-pass reference
/// (materialized_step.h) bit for bit on flat views of `kind`'s schema.
void ExpectStepMatchesMaterializedOnViews(WorkloadKind kind) {
  const DatasetSchema schema = MakeSchema(kind, DatasetScale::kTiny);
  const Dataset dataset = SyntheticGenerator(schema, {.seed = 29}).Generate(64);
  const FlatDataset gathered = dataset.flat().Gather(Iota(64));
  const std::vector<BatchView> views =
      MakeBatchViews(gathered, /*batch_size=*/16, /*hot=*/false);

  std::unique_ptr<RecModel> fused =
      MakeModel(schema, /*full_size=*/false, /*seed=*/3);
  std::unique_ptr<RecModel> materialized =
      MakeModel(schema, /*full_size=*/false, /*seed=*/3);
  StepExecutor exec(fused.get(), {.dense_lr = 0.1f, .sparse_lr = 0.1f});
  const std::vector<EmbeddingTable*> ta = test::TablePtrs(*fused);
  const std::vector<EmbeddingTable*> tb = test::TablePtrs(*materialized);

  Sgd dense_b(0.1f);
  RunningMetric metric_a, window_a, metric_b;
  bool repeated_row = false;
  for (const BatchView& view : views) {
    exec.MathStep(view, ta, metric_a, window_a);
    const StepResult sb =
        test::MaterializedSgdStep(*materialized, view, tb, dense_b, 0.1f);
    metric_b.Observe(sb.loss, sb.correct, sb.batch_size);
    // Observe sums loss * batch_size: equal sums after every step mean
    // equal losses.
    ASSERT_EQ(metric_a.state().loss_sum, metric_b.state().loss_sum);
    ASSERT_EQ(metric_a.state().correct, metric_b.state().correct);
    repeated_row |= HasRepeatedRow(view.indices(0));
  }
  ExpectSameTables(*fused, *materialized);
  // A row looked up twice in one batch checks that its contributions
  // accumulate in the reference's order (for TBSM, table 0 is the item
  // table, whose synthesized scatter list carries every history and target
  // lookup).
  EXPECT_TRUE(repeated_row)
      << "no batch looked up a row of table 0 twice; duplicate scatters "
         "go unchecked";
}

TEST(FlatEquivalenceTest, FusedStepMatchesMaterializedOnViews) {
  ExpectStepMatchesMaterializedOnViews(WorkloadKind::kKaggleDlrm);
}

TEST(FlatEquivalenceTest, FusedTbsmStepMatchesMaterializedOnViews) {
  ExpectStepMatchesMaterializedOnViews(WorkloadKind::kTaobaoTbsm);
}

/// Crash-safe resume on the sequential workload: a run checkpointed and
/// resumed mid-epoch matches the uninterrupted run exactly (the DLRM
/// variant lives in checkpoint_test.cc; this pins the TBSM item-table
/// scatter path on the flat layout).
TEST(FlatEquivalenceTest, TbsmResumeReproducesRunExactly) {
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kTaobaoTbsm, DatasetScale::kTiny);
  const Dataset dataset =
      SyntheticGenerator(schema, {.seed = 31}).Generate(600);
  const Dataset::Split split = dataset.MakeSplit(0.2);
  const std::string path = TempPath("fae_tbsm_flat_resume.ckpt");

  TrainOptions opt;
  opt.per_gpu_batch = 32;
  opt.epochs = 2;
  opt.eval_samples = 64;
  opt.eval_batch = 32;
  opt.evals_per_epoch = 3;

  std::unique_ptr<RecModel> uninterrupted =
      MakeModel(schema, /*full_size=*/false, /*seed=*/5);
  Trainer full(uninterrupted.get(), MakePaperServer(1), opt);
  StatusOr<TrainReport> want = full.TrainBaseline(dataset, split);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  TrainOptions save_opt = opt;
  save_opt.checkpoint.path = path;
  save_opt.checkpoint.every_steps = 7;
  std::unique_ptr<RecModel> saver =
      MakeModel(schema, /*full_size=*/false, /*seed=*/5);
  Trainer save_run(saver.get(), MakePaperServer(1), save_opt);
  ASSERT_TRUE(save_run.TrainBaseline(dataset, split).ok());

  TrainOptions resume_opt = opt;
  resume_opt.checkpoint.path = path;
  resume_opt.checkpoint.resume = true;
  std::unique_ptr<RecModel> resumer =
      MakeModel(schema, /*full_size=*/false, /*seed=*/99);  // overwritten
  Trainer resume_run(resumer.get(), MakePaperServer(1), resume_opt);
  StatusOr<TrainReport> got = resume_run.TrainBaseline(dataset, split);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EXPECT_EQ(got->final_train_loss, want->final_train_loss);
  EXPECT_EQ(got->final_test_loss, want->final_test_loss);
  EXPECT_EQ(got->final_test_auc, want->final_test_auc);
  ExpectSameTables(*uninterrupted, *resumer);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fae
