#include "models/dlrm.h"

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
      : schema(MakeKaggleLikeSchema(DatasetScale::kTiny)),
        config(MakeDlrmConfig(schema, /*full_size=*/false)),
        model(schema, config, /*seed=*/42),
        dataset(SyntheticGenerator(schema, {.seed = 7}).Generate(256)) {}

  DatasetSchema schema;
  ModelConfig config;
  Dlrm model;
  Dataset dataset;
};

TEST(DlrmTest, ConfigWidthsLineUp) {
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  ModelConfig full = MakeDlrmConfig(schema, true);
  EXPECT_EQ(full.bottom_mlp.front(), 13u);
  EXPECT_EQ(full.bottom_mlp.back(), 16u);
  EXPECT_EQ(full.top_mlp.front(), DlrmTopInputWidth(schema));
  // 27 features -> 351 pairs + 16 = 367 (paper's RMC2 interaction width).
  EXPECT_EQ(DlrmTopInputWidth(schema), 27u * 26 / 2 + 16);
}

TEST(DlrmTest, EvalLogitsShape) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 8, /*hot=*/false);
  Tensor logits = f.model.EvalLogits(batch);
  EXPECT_EQ(logits.rows(), 8u);
  EXPECT_EQ(logits.cols(), 1u);
}

TEST(DlrmTest, ForwardBackwardReturnsPerTableGrads) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 4, /*hot=*/false);
  const test::MaterializedStep step =
      test::ForwardBackwardMaterialized(f.model, batch);
  EXPECT_EQ(step.result.batch_size, 4u);
  ASSERT_EQ(step.grads.size(), f.schema.num_tables());
  for (size_t t = 0; t < f.schema.num_tables(); ++t) {
    EXPECT_GE(step.grads[t].num_rows(), 1u);
    EXPECT_LE(step.grads[t].num_rows(), 4u);
    EXPECT_EQ(step.grads[t].dim, f.schema.embedding_dim);
  }
}

TEST(DlrmTest, DenseGradsAccumulate) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 4, /*hot=*/false);
  for (Parameter* p : f.model.DenseParams()) {
    EXPECT_EQ(p->grad.Norm(), 0.0);
  }
  test::ForwardBackwardMaterialized(f.model, batch);
  double total = 0;
  for (Parameter* p : f.model.DenseParams()) total += p->grad.Norm();
  EXPECT_GT(total, 0.0);
}

TEST(DlrmTest, EmbeddingGradientMatchesNumerical) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 2, /*hot=*/false);
  const test::MaterializedStep step =
      test::ForwardBackwardMaterialized(f.model, batch);
  Sgd zero(0.0f);
  zero.ZeroGrad(f.model.DenseParams());

  auto loss = [&]() {
    Tensor logits = f.model.EvalLogits(batch);
    return BceLossOnly(logits, batch.labels);
  };

  // Check a handful of touched rows in the largest table.
  const size_t t = 0;
  size_t checked = 0;
  const float eps = 1e-2f;
  for (size_t s = 0; s < step.grads[t].num_rows(); ++s) {
    const uint64_t row = step.grads[t].row_ids[s];
    for (size_t k = 0; k < 3; ++k) {
      float* cell = f.model.tables()[t].row(row) + k;
      const float orig = *cell;
      *cell = orig + eps;
      const double lp = loss();
      *cell = orig - eps;
      const double lm = loss();
      *cell = orig;
      EXPECT_NEAR(step.grads[t].row(s)[k], (lp - lm) / (2 * eps), 5e-2);
    }
    if (++checked >= 2) break;
  }
}

TEST(DlrmTest, TrainingReducesLoss) {
  Fixture f;
  Sgd dense(0.1f);
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
          test::MaterializedSgdStep(f.model, batch, tables, dense, 0.1f);
      epoch_loss += step.loss;
      ++batches;
    }
    epoch_loss /= batches;
    if (epoch == 0) first_loss = epoch_loss;
    last_loss = epoch_loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.9);
}

TEST(DlrmTest, ForwardBackwardOnAlternativeTablesMatches) {
  // Running against a bitwise copy of the tables must give identical
  // results — the property the FAE replica path relies on.
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 4, /*hot=*/false);
  std::vector<EmbeddingTable> copies = f.model.tables();
  std::vector<EmbeddingTable*> copy_ptrs;
  for (auto& t : copies) copy_ptrs.push_back(&t);

  const test::MaterializedStep on_copy =
      test::ForwardBackwardMaterialized(f.model, batch, copy_ptrs);
  Sgd zero(0.0f);
  zero.ZeroGrad(f.model.DenseParams());
  const test::MaterializedStep on_master =
      test::ForwardBackwardMaterialized(f.model, batch);
  EXPECT_DOUBLE_EQ(on_copy.result.loss, on_master.result.loss);
  EXPECT_EQ(on_copy.result.correct, on_master.result.correct);
  ASSERT_EQ(on_copy.grads.size(), on_master.grads.size());
  for (size_t t = 0; t < on_copy.grads.size(); ++t) {
    EXPECT_EQ(on_copy.grads[t].row_ids, on_master.grads[t].row_ids);
    EXPECT_EQ(on_copy.grads[t].values, on_master.grads[t].values);
  }
}

TEST(DlrmTest, WorkCountsAreConsistent) {
  Fixture f;
  const BatchView batch = MakeBatchView(f.dataset.flat(), 0, 16, /*hot=*/false);
  BatchWork w = f.model.Work(batch);
  EXPECT_EQ(w.embedding_read_bytes,
            batch.TotalLookups() * f.schema.embedding_dim * 4);
  EXPECT_EQ(w.per_table_lookups.size(), f.schema.num_tables());
  EXPECT_GT(w.forward_flops, 0u);
  EXPECT_GT(w.dense_param_count, 0u);
  EXPECT_LE(w.touched_rows, batch.TotalLookups());
  EXPECT_EQ(w.touched_bytes, w.touched_rows * f.schema.embedding_dim * 4);
  uint64_t per_table_sum = 0;
  for (uint64_t v : w.per_table_touched) per_table_sum += v;
  EXPECT_EQ(per_table_sum, w.touched_rows);
}

TEST(DlrmTest, FactoryBuildsDlrmForNonSequential) {
  DatasetSchema schema = MakeKaggleLikeSchema(DatasetScale::kTiny);
  auto model = MakeModel(schema, /*full_size=*/false, 1);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->tables().size(), schema.num_tables());
  EXPECT_EQ(model->embedding_dim(), schema.embedding_dim);
}

}  // namespace
}  // namespace fae
