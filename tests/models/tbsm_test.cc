#include "models/tbsm.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/batch_view.h"
#include "data/synthetic.h"
#include "materialized_step.h"
#include "models/factory.h"
#include "tensor/loss.h"
#include "tensor/sgd.h"

namespace fae {
namespace {

struct Fixture {
  Fixture()
      : schema(MakeTaobaoLikeSchema(DatasetScale::kTiny)),
        config(MakeTbsmConfig(schema, /*full_size=*/false)),
        model(schema, config, /*seed=*/42),
        dataset(SyntheticGenerator(schema, {.seed = 7}).Generate(256)) {}

  DatasetSchema schema;
  ModelConfig config;
  Tbsm model;
  Dataset dataset;
};

TEST(TbsmTest, EvalLogitsShape) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 8, /*hot=*/false);
  Tensor logits = f.model.EvalLogits(batch);
  EXPECT_EQ(logits.rows(), 8u);
  EXPECT_EQ(logits.cols(), 1u);
}

TEST(TbsmTest, EvalIsDeterministicAndMatchesTraining) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 4, /*hot=*/false);
  Tensor a = f.model.EvalLogits(batch);
  const StepResult step =
      test::ForwardBackwardMaterialized(f.model, batch).result;
  Tensor b = f.model.EvalLogits(batch);
  // No optimizer ran, so logits must be unchanged by the backward pass.
  EXPECT_LT(MaxAbsDiff(a, b), 1e-6f);
  EXPECT_NEAR(step.loss, BceLossOnly(a, batch.labels), 1e-6);
  Sgd zero(0.0f);
  zero.ZeroGrad(f.model.DenseParams());
}

TEST(TbsmTest, ItemTableGetsHistoryAndTargetGrads) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 8, /*hot=*/false);
  const test::MaterializedStep step =
      test::ForwardBackwardMaterialized(f.model, batch);
  ASSERT_EQ(step.grads.size(), 3u);
  // The item table accumulates gradients from histories and targets; there
  // must be at least one row per sample's target.
  EXPECT_GE(step.grads[0].num_rows(), 1u);
  EXPECT_EQ(step.grads[0].dim, f.schema.embedding_dim);
}

TEST(TbsmTest, EmbeddingGradientMatchesNumerical) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 3, /*hot=*/false);
  const test::MaterializedStep step =
      test::ForwardBackwardMaterialized(f.model, batch);
  Sgd zero(0.0f);
  zero.ZeroGrad(f.model.DenseParams());

  auto loss = [&]() {
    Tensor logits = f.model.EvalLogits(batch);
    return BceLossOnly(logits, batch.labels);
  };

  const float eps = 1e-2f;
  for (size_t t = 0; t < 3; ++t) {
    const test::RowGrad& grad = step.grads[t];
    const size_t checked = std::min<size_t>(2, grad.num_rows());
    for (size_t s = 0; s < checked; ++s) {
      const uint64_t row = grad.row_ids[s];
      for (size_t k = 0; k < 2; ++k) {
        float* cell = f.model.tables()[t].row(row) + k;
        const float orig = *cell;
        *cell = orig + eps;
        const double lp = loss();
        *cell = orig - eps;
        const double lm = loss();
        *cell = orig;
        EXPECT_NEAR(grad.row(s)[k], (lp - lm) / (2 * eps), 5e-2)
            << "table " << t << " row " << row;
      }
    }
  }
}

TEST(TbsmTest, TrainingReducesLoss) {
  Fixture f;
  Sgd dense(0.05f);
  const std::vector<EmbeddingTable*> tables = test::TablePtrs(f.model);

  double first_loss = 0;
  double last_loss = 0;
  const size_t batch_size = 32;
  for (int epoch = 0; epoch < 30; ++epoch) {
    double epoch_loss = 0;
    size_t batches = 0;
    for (size_t begin = 0; begin + batch_size <= f.dataset.size();
         begin += batch_size) {
      const BatchView batch = MakeBatchView(
          f.dataset.flat(), begin, begin + batch_size, /*hot=*/false);
      const StepResult step =
          test::MaterializedSgdStep(f.model, batch, tables, dense, 0.05f);
      epoch_loss += step.loss;
      ++batches;
    }
    epoch_loss /= batches;
    if (epoch == 0) first_loss = epoch_loss;
    last_loss = epoch_loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.95);
}

TEST(TbsmTest, FullSizeModelGradientCheck) {
  // The full Table I configuration routes history embeddings through the
  // deep per-timestep MLP; verify gradients flow through it correctly.
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  ModelConfig config = MakeTbsmConfig(schema, /*full_size=*/true);
  ASSERT_GE(config.step_mlp.size(), 3u);
  Tbsm model(schema, config, 42);
  Dataset dataset = SyntheticGenerator(schema, {.seed = 77}).Generate(16);
  const BatchView batch = MakeBatchView(dataset.flat(), 0, 3, /*hot=*/false);

  const test::MaterializedStep step =
      test::ForwardBackwardMaterialized(model, batch);
  Sgd zero(0.0f);
  zero.ZeroGrad(model.DenseParams());

  auto loss = [&]() {
    Tensor logits = model.EvalLogits(batch);
    return BceLossOnly(logits, batch.labels);
  };

  const float eps = 1e-2f;
  const test::RowGrad& grad = step.grads[0];
  const size_t checked = std::min<size_t>(3, grad.num_rows());
  for (size_t s = 0; s < checked; ++s) {
    const uint64_t row = grad.row_ids[s];
    for (size_t k = 0; k < 2; ++k) {
      float* cell = model.tables()[0].row(row) + k;
      const float orig = *cell;
      *cell = orig + eps;
      const double lp = loss();
      *cell = orig - eps;
      const double lm = loss();
      *cell = orig;
      EXPECT_NEAR(grad.row(s)[k], (lp - lm) / (2 * eps), 5e-2)
          << "row " << row;
    }
  }
}

TEST(TbsmTest, WorkAccountsSequenceLookups) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 16, /*hot=*/false);
  BatchWork w = f.model.Work(batch);
  EXPECT_EQ(w.embedding_read_bytes,
            batch.TotalLookups() * f.schema.embedding_dim * 4);
  // Sequences make item-table lookups dominate.
  EXPECT_GT(w.per_table_lookups[0], w.per_table_lookups[1]);
}

TEST(TbsmTest, FactoryBuildsTbsmForSequentialSchema) {
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  auto model = MakeModel(schema, /*full_size=*/false, 3);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->tables().size(), 3u);
}

TEST(TbsmDeathTest, RejectsNonSequentialSchema) {
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  ModelConfig config = MakeTbsmConfig(schema, false);
  EXPECT_DEATH(Tbsm(schema, config, 1), "sequential");
}

}  // namespace
}  // namespace fae
