#include "data/synthetic.h"

#include <cmath>
#include <numeric>

#include "stats/zipf.h"
#include "util/logging.h"
#include "util/random.h"

namespace fae {
namespace {

uint64_t Gcd(uint64_t a, uint64_t b) {
  while (b != 0) {
    a %= b;
    std::swap(a, b);
  }
  return a;
}

}  // namespace

SyntheticGenerator::SyntheticGenerator(DatasetSchema schema,
                                       SyntheticOptions options)
    : schema_(std::move(schema)), options_(options) {
  Xoshiro256 rng(options_.seed);
  mult_.resize(schema_.num_tables());
  shift_.resize(schema_.num_tables());
  for (size_t t = 0; t < schema_.num_tables(); ++t) {
    const uint64_t rows = schema_.table_rows[t];
    // Odd candidates, stepping by 2 until coprime with `rows`; m = 1 is
    // always reachable in principle so the loop terminates.
    uint64_t m = rng.NextBounded(rows) | 1;
    while (Gcd(m, rows) != 1) m += 2;
    mult_[t] = m;
    shift_[t] = rng.NextBounded(rows);
  }
  dense_weights_.resize(schema_.num_dense);
  for (double& w : dense_weights_) {
    w = rng.NextGaussian() * options_.dense_weight_scale /
        std::sqrt(static_cast<double>(std::max<size_t>(1, schema_.num_dense)));
  }
}

uint64_t SyntheticGenerator::RankToRowAt(size_t t, uint64_t rank,
                                         double phase) const {
  const uint64_t rows = schema_.table_rows[t];
  const uint64_t drift_shift = static_cast<uint64_t>(
      options_.popularity_drift * phase * static_cast<double>(rows));
  // Drift rotates rank space before the affine scatter, so the hot set
  // moves smoothly through the table as the dataset progresses.
  const uint64_t shifted = (rank + drift_shift) % rows;
  return (static_cast<__uint128_t>(mult_[t]) * shifted + shift_[t]) % rows;
}

double SyntheticGenerator::Affinity(size_t t, uint64_t row) const {
  SplitMix64 h(options_.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)) ^ row);
  const double u =
      static_cast<double>(h.Next() >> 11) * 0x1.0p-53;  // [0, 1)
  return (2.0 * u - 1.0) * options_.affinity_scale;
}

Dataset SyntheticGenerator::Generate(size_t num_inputs) const {
  Xoshiro256 rng(options_.seed + 1);
  std::vector<ZipfSampler> zipfs;
  zipfs.reserve(schema_.num_tables());
  for (size_t t = 0; t < schema_.num_tables(); ++t) {
    zipfs.emplace_back(schema_.table_rows[t], options_.zipf_exponent);
  }

  // Generate straight into the flat SoA layout — no per-sample object is
  // ever materialized. RNG call order (dense gaussians, per-table zipf
  // lookups, label bernoulli) and the affinity summation order match the
  // historical AoS generator exactly, so datasets are bit-identical.
  FlatDataset flat(schema_);
  std::vector<size_t> expected_lookups(schema_.num_tables(), num_inputs);
  if (schema_.sequential && !expected_lookups.empty()) {
    // Table 0 carries 1..max_history lookups per input; reserve the mean.
    expected_lookups[0] = num_inputs * (1 + schema_.max_history) / 2;
  }
  flat.Reserve(num_inputs, expected_lookups);
  for (size_t i = 0; i < num_inputs; ++i) {
    const double phase =
        num_inputs > 1
            ? static_cast<double>(i) / static_cast<double>(num_inputs - 1)
            : 0.0;
    double score = 0.0;
    for (size_t d = 0; d < schema_.num_dense; ++d) {
      const float v = static_cast<float>(rng.NextGaussian());
      flat.AppendDense(v);
      score += dense_weights_[d] * v;
    }
    size_t lookups = 0;
    // Planted logistic labeller over dense features and lookup affinities,
    // normalized by lookup count so sequential inputs are not biased. The
    // affinity sum folds into the lookup loop (same t-ascending,
    // j-ascending element order as the historical second pass).
    double emb_score = 0.0;
    for (size_t t = 0; t < schema_.num_tables(); ++t) {
      size_t n = 1;
      if (schema_.sequential && t == 0) {
        n = 1 + rng.NextBounded(schema_.max_history);
      }
      for (size_t j = 0; j < n; ++j) {
        const uint64_t rank = zipfs[t].Sample(rng);
        const uint64_t row = RankToRowAt(t, rank, phase);
        flat.AppendLookup(t, static_cast<uint32_t>(row));
      }
      lookups += n;
    }
    for (size_t t = 0; t < schema_.num_tables(); ++t) {
      for (uint32_t row : flat.PendingLookups(t)) {
        emb_score += Affinity(t, row);
      }
    }
    score += emb_score / std::sqrt(static_cast<double>(std::max<size_t>(1, lookups)));
    const double p = 1.0 / (1.0 + std::exp(-score));
    flat.FinishSample(rng.NextBernoulli(p) ? 1.0f : 0.0f);
  }
  return Dataset(std::move(flat));
}

}  // namespace fae
