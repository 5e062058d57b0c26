#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"

namespace fae {
namespace {

struct Fixture {
  Fixture()
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        dataset(SyntheticGenerator(schema, {.seed = 13}).Generate(3000)),
        split(dataset.MakeSplit(0.1)) {}

  static TrainOptions Options() {
    TrainOptions opt;
    opt.per_gpu_batch = 64;
    opt.epochs = 1;
    opt.run_math = true;
    opt.eval_samples = 256;
    return opt;
  }

  static FaeConfig Config() {
    FaeConfig cfg;
    cfg.sample_rate = 0.25;
    cfg.gpu_memory_budget = 384ULL << 10;
    cfg.large_table_bytes = 1ULL << 12;
    cfg.num_threads = 2;
    return cfg;
  }

  DatasetSchema schema;
  Dataset dataset;
  Dataset::Split split;
};

TEST(DeterminismTest, BaselineIsBitReproducible) {
  Fixture f;
  TrainReport a;
  TrainReport b;
  for (TrainReport* out : {&a, &b}) {
    auto model = MakeModel(f.schema, false, 5);
    Trainer trainer(model.get(), MakePaperServer(2), Fixture::Options());
    auto report = trainer.TrainBaseline(f.dataset, f.split);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    *out = std::move(report).value();
  }
  EXPECT_EQ(a.final_test_loss, b.final_test_loss);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].train_loss, b.curve[i].train_loss);
    EXPECT_EQ(a.curve[i].test_loss, b.curve[i].test_loss);
  }
}

TEST(DeterminismTest, FaeIsBitReproducible) {
  Fixture f;
  TrainReport a;
  TrainReport b;
  for (TrainReport* out : {&a, &b}) {
    auto model = MakeModel(f.schema, false, 5);
    Trainer trainer(model.get(), MakePaperServer(2), Fixture::Options());
    auto report = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
    ASSERT_TRUE(report.ok());
    *out = std::move(report).value();
  }
  EXPECT_EQ(a.final_test_loss, b.final_test_loss);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.hot_fraction, b.hot_fraction);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
}

TEST(DeterminismTest, ThreadCountDoesNotChangeResults) {
  // The kernel layer's determinism contract: every kernel partitions work
  // write-disjointly and keeps per-element summation order fixed, so a run
  // with 4 worker threads is bit-identical to a serial run — final losses,
  // the whole learning curve, and every embedding table value.
  Fixture f;
  TrainReport a;
  TrainReport b;
  std::vector<std::vector<float>> tables_a;
  std::vector<std::vector<float>> tables_b;
  TrainOptions opt = Fixture::Options();
  opt.epochs = 2;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    opt.num_threads = threads;
    auto model = MakeModel(f.schema, false, 5);
    Trainer trainer(model.get(), MakePaperServer(2), opt);
    TrainReport& out = threads == 1 ? a : b;
    auto& tables = threads == 1 ? tables_a : tables_b;
    auto report = trainer.TrainBaseline(f.dataset, f.split);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    out = std::move(report).value();
    for (const EmbeddingTable& t : model->tables()) {
      tables.push_back(t.raw());
    }
  }
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.final_test_loss, b.final_test_loss);
  EXPECT_EQ(a.final_test_auc, b.final_test_auc);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].train_loss, b.curve[i].train_loss);
    EXPECT_EQ(a.curve[i].test_loss, b.curve[i].test_loss);
  }
  ASSERT_EQ(tables_a.size(), tables_b.size());
  for (size_t t = 0; t < tables_a.size(); ++t) {
    // Exact float equality, element by element: the contract is bit-level.
    EXPECT_EQ(tables_a[t], tables_b[t]) << "table " << t;
  }
}

TEST(DeterminismTest, FaeThreadCountDoesNotChangeResults) {
  Fixture f;
  TrainReport a;
  TrainReport b;
  TrainOptions opt = Fixture::Options();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    opt.num_threads = threads;
    auto model = MakeModel(f.schema, false, 5);
    Trainer trainer(model.get(), MakePaperServer(2), opt);
    auto report = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
    ASSERT_TRUE(report.ok());
    (threads == 1 ? a : b) = std::move(report).value();
  }
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.final_test_loss, b.final_test_loss);
  EXPECT_EQ(a.transitions, b.transitions);
}

TEST(DeterminismTest, DifferentSeedsGiveDifferentTrajectories) {
  Fixture f;
  TrainOptions opt1 = Fixture::Options();
  TrainOptions opt2 = Fixture::Options();
  opt2.seed = opt1.seed + 1;  // different batch order
  auto m1 = MakeModel(f.schema, false, 5);
  Trainer t1(m1.get(), MakePaperServer(1), opt1);
  StatusOr<TrainReport> a = t1.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto m2 = MakeModel(f.schema, false, 5);
  Trainer t2(m2.get(), MakePaperServer(1), opt2);
  StatusOr<TrainReport> b = t2.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(a->final_train_loss, b->final_train_loss);
}

TEST(DeterminismTest, DifferentModelSeedsGiveDifferentModels) {
  Fixture f;
  auto m1 = MakeModel(f.schema, false, 5);
  auto m2 = MakeModel(f.schema, false, 6);
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 4, /*hot=*/false);
  Tensor l1 = m1->EvalLogits(batch);
  Tensor l2 = m2->EvalLogits(batch);
  EXPECT_GT(MaxAbsDiff(l1, l2), 0.0f);
}

TEST(DeterminismTest, CostOnlyTimelineIndependentOfMathMode) {
  // The modeled time must not depend on whether math ran (work units are
  // derived from batch contents alone).
  Fixture f;
  TrainOptions with_math = Fixture::Options();
  TrainOptions without_math = Fixture::Options();
  without_math.run_math = false;
  auto m1 = MakeModel(f.schema, false, 5);
  Trainer t1(m1.get(), MakePaperServer(2), with_math);
  StatusOr<TrainReport> a = t1.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto m2 = MakeModel(f.schema, false, 5);
  Trainer t2(m2.get(), MakePaperServer(2), without_math);
  StatusOr<TrainReport> b = t2.TrainBaseline(f.dataset, f.split);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->modeled_seconds, b->modeled_seconds);
  EXPECT_EQ(a->timeline.pcie_bytes(), b->timeline.pcie_bytes());
}

}  // namespace
}  // namespace fae
