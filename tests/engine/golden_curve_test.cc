#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "util/string_util.h"

// Golden-curve regression fixtures: the committed files under
// tests/engine/golden/ pin the exact learning curve (and modeled wall) of
// one tiny baseline run and one tiny FAE run at a fixed seed. Every value
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

void CheckAgainstGolden(const GoldenRun& run, const std::string& name) {
  const std::string path = std::string(FAE_GOLDEN_DIR) + "/" + name;
  const std::string rendered = Render(run);
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
  EXPECT_EQ(got_lines.size(), want_lines.size()) << "curve shape changed";
  const size_t n = std::min(got_lines.size(), want_lines.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got_lines[i], want_lines[i]) << path << " line " << (i + 1);
  }
}

struct Fixture {
  Fixture()
      : schema(MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny)),
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
  CheckAgainstGolden(ToGolden(*r), "baseline_curve.txt");
}

TEST(GoldenCurveTest, FaeCurveMatchesFixture) {
  Fixture f;
  auto model = MakeModel(f.schema, /*full_size=*/false, /*seed=*/5);
  Trainer trainer(model.get(), MakePaperServer(1), Fixture::Options());
  auto r = trainer.TrainFae(f.dataset, f.split, Fixture::Config());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->curve.empty());
  CheckAgainstGolden(ToGolden(*r), "fae_curve.txt");
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
  CheckAgainstGolden(ToGolden(*r), "stale_skip_curve.txt");
}

}  // namespace
}  // namespace fae
