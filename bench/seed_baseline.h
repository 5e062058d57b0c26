// Seed-layout (pre-flat AoS) baselines for the benches that report the flat
// SoA layout's gain: pipeline_throughput (the layout gate) and the fig08 /
// fig11 layout columns. Verbatim copies of the data layer before the flat
// rework — do not "improve" these; their value is being what the repo
// shipped. They are bench-private: the library itself keeps only the flat
// layout.

#ifndef FAE_BENCH_SEED_BASELINE_H_
#define FAE_BENCH_SEED_BASELINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/embedding_classifier.h"
#include "data/batch_view.h"
#include "data/dataset.h"
#include "engine/metrics.h"
#include "models/rec_model.h"
#include "stats/access_profile.h"
#include "tensor/sgd.h"
#include "tensor/tensor.h"
#include "tests/materialized_step.h"
#include "util/random.h"

namespace fae {
namespace bench {

/// The seed's per-sample input: dense features plus one lookup vector per
/// embedding table (a vector of vectors per sample).
struct SparseInput {
  std::vector<float> dense;
  std::vector<std::vector<uint32_t>> indices;
  float label = 0.0f;
};

/// The seed's owned mini-batch: a dense matrix plus one zero-based CSR
/// (indices/offsets) lookup list per table, copied out of the sample store.
struct MiniBatch {
  Tensor dense;  // [B, num_dense]
  std::vector<std::vector<uint32_t>> indices;
  std::vector<std::vector<uint32_t>> offsets;  // per table, B + 1 entries
  std::vector<float> labels;
  bool hot = false;

  size_t batch_size() const { return labels.size(); }

  uint64_t TotalLookups() const {
    uint64_t n = 0;
    for (const auto& off : offsets) {
      if (!off.empty()) n += off.back() - off.front();
    }
    return n;
  }
};

/// Views a MiniBatch's owned buffers as a BatchView (zero-based offsets
/// satisfy the view's relative-offset contract). The batch must outlive
/// the view.
inline BatchView ViewOf(const MiniBatch& batch) {
  BatchView view;
  view.dense = batch.dense;
  view.labels = batch.labels;
  view.hot = batch.hot;
  view.total_lookups = batch.TotalLookups();
  view.tables.resize(batch.indices.size());
  for (size_t t = 0; t < batch.indices.size(); ++t) {
    view.tables[t].indices = batch.indices[t];
    view.tables[t].offsets = batch.offsets[t];
  }
  return view;
}

/// Materializes the AoS sample store the seed data layer kept resident
/// (one SparseInput of nested vectors per sample).
inline std::vector<SparseInput> MaterializeAos(const Dataset& dataset) {
  const FlatDataset& flat = dataset.flat();
  const DatasetSchema& schema = flat.schema();
  std::vector<SparseInput> aos(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    SparseInput& s = aos[i];
    s.dense.assign(flat.dense_row(i), flat.dense_row(i) + schema.num_dense);
    s.indices.resize(schema.num_tables());
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      const std::span<const uint32_t> l = flat.lookups(t, i);
      s.indices[t].assign(l.begin(), l.end());
    }
    s.label = flat.label(i);
  }
  return aos;
}

/// Resident bytes of the AoS sample store: struct + every nested vector's
/// heap block (what the seed layout actually holds in memory).
inline size_t AosBytes(const std::vector<SparseInput>& samples) {
  size_t bytes = samples.capacity() * sizeof(SparseInput);
  for (const SparseInput& s : samples) {
    bytes += s.dense.capacity() * sizeof(float);
    bytes += s.indices.capacity() * sizeof(std::vector<uint32_t>);
    for (const auto& v : s.indices) bytes += v.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

/// Seed Embedding Logger: per-sample nested-vector walk (embedding_logger.cc
/// before the flat rework). Counts the recorded lookups into `num_lookups`
/// when given.
inline AccessProfile SeedProfile(const DatasetSchema& schema,
                                 const std::vector<SparseInput>& samples,
                                 const std::vector<uint64_t>& sample_ids,
                                 uint64_t* num_lookups = nullptr) {
  AccessProfile profile(schema.table_rows);
  uint64_t lookups = 0;
  for (uint64_t id : sample_ids) {
    const SparseInput& s = samples[id];
    for (size_t t = 0; t < s.indices.size(); ++t) {
      for (uint32_t row : s.indices[t]) {
        profile.Record(t, row);
        ++lookups;
      }
    }
  }
  if (num_lookups != nullptr) *num_lookups = lookups;
  return profile;
}

/// Seed Input Processor classification: the serial inner loop of the
/// pre-flat Classify (input_processor.cc before the rework).
inline void SeedClassify(const std::vector<SparseInput>& samples,
                         const HotSet& hot_set,
                         const std::vector<uint64_t>& which,
                         std::vector<uint64_t>* hot_ids,
                         std::vector<uint64_t>* cold_ids) {
  hot_ids->clear();
  cold_ids->clear();
  for (uint64_t id : which) {
    const SparseInput& s = samples[id];
    bool hot = true;
    for (size_t t = 0; t < s.indices.size() && hot; ++t) {
      for (uint32_t row : s.indices[t]) {
        if (!hot_set.IsHot(t, row)) {
          hot = false;
          break;
        }
      }
    }
    (hot ? hot_ids : cold_ids)->push_back(id);
  }
}

/// Seed copying batch assembly (minibatch.cc before the rework), reading
/// the AoS sample store.
inline MiniBatch SeedAssembleBatch(const DatasetSchema& schema,
                                   const std::vector<SparseInput>& samples,
                                   std::span<const uint64_t> sample_ids,
                                   bool hot) {
  const size_t b = sample_ids.size();
  MiniBatch batch;
  batch.hot = hot;
  batch.dense = Tensor(b, schema.num_dense);
  batch.indices.resize(schema.num_tables());
  batch.offsets.assign(schema.num_tables(), std::vector<uint32_t>(1, 0));
  batch.labels.resize(b);
  for (size_t i = 0; i < b; ++i) {
    const SparseInput& s = samples[sample_ids[i]];
    std::copy(s.dense.begin(), s.dense.end(), batch.dense.row(i));
    batch.labels[i] = s.label;
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      auto& idx = batch.indices[t];
      idx.insert(idx.end(), s.indices[t].begin(), s.indices[t].end());
      batch.offsets[t].push_back(static_cast<uint32_t>(idx.size()));
    }
  }
  return batch;
}

inline std::vector<MiniBatch> SeedAssembleBatches(
    const DatasetSchema& schema, const std::vector<SparseInput>& samples,
    const std::vector<uint64_t>& sample_ids, size_t batch_size, bool hot) {
  std::vector<MiniBatch> out;
  for (size_t begin = 0; begin < sample_ids.size(); begin += batch_size) {
    const size_t end = std::min(sample_ids.size(), begin + batch_size);
    out.push_back(SeedAssembleBatch(
        schema, samples,
        std::span<const uint64_t>(sample_ids).subspan(begin, end - begin),
        hot));
  }
  return out;
}

/// Seed Pack: Fisher-Yates within each class (same RNG sequence as
/// InputProcessor::PackFlat), then copying assembly.
struct SeedPacked {
  std::vector<MiniBatch> hot;
  std::vector<MiniBatch> cold;
};
inline SeedPacked SeedPack(const DatasetSchema& schema,
                           const std::vector<SparseInput>& samples,
                           const std::vector<uint64_t>& hot_ids,
                           const std::vector<uint64_t>& cold_ids,
                           size_t batch_size, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> hot = hot_ids;
  std::vector<uint64_t> cold = cold_ids;
  for (size_t i = hot.size(); i > 1; --i) {
    std::swap(hot[i - 1], hot[rng.NextBounded(i)]);
  }
  for (size_t i = cold.size(); i > 1; --i) {
    std::swap(cold[i - 1], cold[rng.NextBounded(i)]);
  }
  SeedPacked packed;
  packed.hot = SeedAssembleBatches(schema, samples, hot, batch_size, true);
  packed.cold = SeedAssembleBatches(schema, samples, cold, batch_size, false);
  return packed;
}

/// Seed per-step math (the step loop the repo started with): materialize
/// every table's gradient, then take a separate optimizer pass over it —
/// plus a fresh DenseParams() vector per step. This is the tests'
/// materialized reference (tests/materialized_step.h), bit-exact with the
/// trainer's fused step (same per-row accumulation order, same update
/// arithmetic; pinned by FlatEquivalenceTest).
inline void SeedMathStep(RecModel& model, const BatchView& view,
                         const std::vector<EmbeddingTable*>& tables,
                         Sgd& dense_sgd, float sparse_lr,
                         RunningMetric& metric) {
  const StepResult step =
      test::MaterializedSgdStep(model, view, tables, dense_sgd, sparse_lr);
  metric.Observe(step.loss, step.correct, step.batch_size);
}

}  // namespace bench
}  // namespace fae

#endif  // FAE_BENCH_SEED_BASELINE_H_
