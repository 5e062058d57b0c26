// Serving: train a session-recommendation model with FAE, checkpoint it,
// reload the checkpoint (as an inference process would), and rank
// candidate items for live user sessions — top-K retrieval over the
// model's click-probability scores.
//
// Build & run:  ./build/examples/serving

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "data/batch_view.h"
#include "data/synthetic.h"
#include "engine/trainer.h"
#include "models/factory.h"
#include "models/model_io.h"
#include "tensor/ops.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace {

// Scores every candidate as the target item appended to the history of
// sample `session` of `sessions` and returns the top-k item ids.
std::vector<std::pair<float, uint32_t>> RankCandidates(
    fae::RecModel& model, const fae::FlatDataset& sessions,
    size_t session, const std::vector<uint32_t>& candidates, size_t k) {
  const fae::DatasetSchema& schema = sessions.schema();
  const float* dense = sessions.dense_row(session);
  // One request batch, built with the streaming builder: a sample per
  // candidate.
  fae::FlatDataset batch(schema);
  for (uint32_t candidate : candidates) {
    for (size_t d = 0; d < schema.num_dense; ++d) batch.AppendDense(dense[d]);
    // Item table: history then the candidate as the target (TBSM's input
    // convention); other tables: the session's own context.
    for (uint32_t item : sessions.lookups(0, session)) {
      batch.AppendLookup(0, item);
    }
    batch.AppendLookup(0, candidate);
    for (size_t t = 1; t < schema.num_tables(); ++t) {
      batch.AppendLookup(t, sessions.lookups(t, session)[0]);
    }
    batch.FinishSample(0.0f);
  }
  const size_t b = candidates.size();
  const fae::Tensor& logits =
      model.EvalLogits(fae::MakeBatchView(batch, 0, b, /*hot=*/false));
  std::vector<std::pair<float, uint32_t>> scored;
  scored.reserve(b);
  for (size_t i = 0; i < b; ++i) {
    scored.push_back({logits(i, 0), candidates[i]});
  }
  std::partial_sort(scored.begin(), scored.begin() + std::min(k, b),
                    scored.end(), std::greater<>());
  scored.resize(std::min(k, b));
  return scored;
}

}  // namespace

int main() {
  using namespace fae;

  // --- Training side ---
  DatasetSchema schema = MakeTaobaoLikeSchema(DatasetScale::kTiny);
  SyntheticGenerator generator(schema, {.seed = 123});
  Dataset dataset = generator.Generate(6000);
  Dataset::Split split = dataset.MakeSplit(0.1);

  FaeConfig config;
  config.sample_rate = 0.25;
  config.gpu_memory_budget = 768 << 10;
  config.large_table_bytes = 4 << 10;

  TrainOptions options;
  options.per_gpu_batch = 64;
  options.epochs = 2;

  auto trained = MakeModel(schema, /*full_size=*/false, 7);
  Trainer trainer(trained.get(), MakePaperServer(2), options);
  auto report = trainer.TrainFae(dataset, split, config);
  if (!report.ok()) {
    std::printf("training failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("trained with FAE: test acc %.2f%%, test AUC %.3f (%s modeled)\n",
              100 * report->final_test_acc, report->final_test_auc,
              HumanSeconds(report->modeled_seconds).c_str());

  const std::string checkpoint = "/tmp/fae_serving.faem";
  if (Status s = ModelIo::Save(checkpoint, *trained); !s.ok()) {
    std::printf("checkpoint failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("checkpointed to %s\n\n", checkpoint.c_str());

  // --- Serving side: a fresh process would do exactly this ---
  auto server_model = MakeModel(schema, /*full_size=*/false, 999);
  if (Status s = ModelIo::Load(checkpoint, *server_model); !s.ok()) {
    std::printf("restore failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Candidate pool: the 200 globally most popular items (a production
  // system would use a retrieval stage here).
  AccessProfile profile = dataset.ProfileAllAccesses();
  std::vector<std::pair<uint64_t, uint32_t>> by_count;
  for (uint32_t r = 0; r < schema.table_rows[0]; ++r) {
    by_count.push_back({profile.counts(0)[r], r});
  }
  std::partial_sort(by_count.begin(), by_count.begin() + 200, by_count.end(),
                    std::greater<>());
  std::vector<uint32_t> candidates;
  for (int i = 0; i < 200; ++i) candidates.push_back(by_count[i].second);

  // Serve three sessions from the held-out split.
  for (int q = 0; q < 3; ++q) {
    const size_t session = split.test[q * 7];
    auto top =
        RankCandidates(*server_model, dataset.flat(), session, candidates, 5);
    std::printf("session with %zu history items -> top-5 recommendations:\n",
                dataset.flat().lookups(0, session).size());
    for (const auto& [score, item] : top) {
      const double p = 1.0 / (1.0 + std::exp(-score));
      std::printf("  item %-8u p(click)=%.3f\n", item, p);
    }
  }
  (void)RemoveFile(checkpoint);
  return 0;
}
