// Property tests for the FlatDataset CSR invariants that the trainer's
// batch views and BatchPipeline's recycled workspaces lean on (DESIGN.md
// §10, §11): offsets start at 0 and grow monotonically, every index is
// in-bounds for its table, batch views carry dataset-absolute offsets, and
// a GatherInto workspace recycled across differently shaped fills never
// leaks stale samples. Shapes are fuzzed with a fixed seed so failures
// replay deterministically.

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "data/batch_view.h"
#include "data/flat_dataset.h"
#include "data/schema.h"

namespace fae {
namespace {

struct RandomCase {
  DatasetSchema schema;
  FlatDataset flat;
};

/// Random schema + dataset: 1-4 tables, 0-3 dense features, per-sample
/// lookup counts 0-5 (zero-lookup samples are the classic CSR edge case).
RandomCase MakeRandomCase(std::mt19937_64& rng, size_t max_samples = 40) {
  RandomCase c;
  c.schema.name = "prop";
  c.schema.num_dense = rng() % 4;
  c.schema.table_rows.resize(1 + rng() % 4);
  for (auto& rows : c.schema.table_rows) rows = 1 + rng() % 500;
  c.schema.embedding_dim = 4;
  c.flat = FlatDataset(c.schema);
  const size_t n = 1 + rng() % max_samples;
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < c.schema.num_dense; ++d) {
      c.flat.AppendDense(static_cast<float>(rng() % 1000) / 7.0f);
    }
    for (size_t t = 0; t < c.schema.num_tables(); ++t) {
      const size_t lookups = rng() % 6;
      for (size_t k = 0; k < lookups; ++k) {
        c.flat.AppendLookup(
            t, static_cast<uint32_t>(rng() % c.schema.table_rows[t]));
      }
    }
    c.flat.FinishSample(static_cast<float>(i % 2));
  }
  return c;
}

/// The CSR well-formedness property every FlatDataset must satisfy.
void ExpectWellFormed(const FlatDataset& flat) {
  uint64_t total = 0;
  for (size_t t = 0; t < flat.schema().num_tables(); ++t) {
    const auto offsets = flat.offsets(t);
    const auto indices = flat.indices(t);
    ASSERT_EQ(offsets.size(), flat.size() + 1) << "table " << t;
    EXPECT_EQ(offsets.front(), 0u) << "table " << t;
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      EXPECT_LE(offsets[i], offsets[i + 1])
          << "table " << t << " offset " << i;
    }
    EXPECT_EQ(offsets.back(), indices.size()) << "table " << t;
    for (size_t i = 0; i < indices.size(); ++i) {
      EXPECT_LT(indices[i], flat.schema().table_rows[t])
          << "table " << t << " index " << i;
    }
    total += indices.size();
  }
  EXPECT_EQ(flat.total_lookups(), total);
}

/// Sample `gi` of `got` must equal sample `si` of `src` field for field.
void ExpectSampleEqual(const FlatDataset& src, size_t si,
                       const FlatDataset& got, size_t gi) {
  for (size_t d = 0; d < src.schema().num_dense; ++d) {
    EXPECT_EQ(got.dense_row(gi)[d], src.dense_row(si)[d])
        << "sample " << gi << " dense " << d;
  }
  EXPECT_EQ(got.label(gi), src.label(si)) << "sample " << gi;
  EXPECT_EQ(got.NumLookups(gi), src.NumLookups(si)) << "sample " << gi;
  for (size_t t = 0; t < src.schema().num_tables(); ++t) {
    const auto want = src.lookups(t, si);
    const auto have = got.lookups(t, gi);
    ASSERT_EQ(have.size(), want.size()) << "sample " << gi << " table " << t;
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(have[k], want[k])
          << "sample " << gi << " table " << t << " lookup " << k;
    }
  }
}

TEST(FlatDatasetPropertyTest, RandomDatasetsAreWellFormed) {
  std::mt19937_64 rng(101);
  for (int iter = 0; iter < 50; ++iter) {
    RandomCase c = MakeRandomCase(rng);
    ExpectWellFormed(c.flat);
  }
}

TEST(FlatDatasetPropertyTest, GatherPreservesSamplesAndWellFormedness) {
  std::mt19937_64 rng(202);
  for (int iter = 0; iter < 30; ++iter) {
    RandomCase c = MakeRandomCase(rng);
    std::vector<uint64_t> ids(rng() % (2 * c.flat.size() + 1));
    for (auto& id : ids) id = rng() % c.flat.size();  // dups + any order
    const FlatDataset got = c.flat.Gather(ids);
    ASSERT_EQ(got.size(), ids.size());
    ExpectWellFormed(got);
    for (size_t i = 0; i < ids.size(); ++i) {
      ExpectSampleEqual(c.flat, ids[i], got, i);
    }
  }
}

TEST(FlatDatasetPropertyTest, GatherIntoMatchesGatherExactly) {
  std::mt19937_64 rng(303);
  RandomCase c = MakeRandomCase(rng);
  FlatDataset workspace;
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<uint64_t> ids(1 + rng() % 30);
    for (auto& id : ids) id = rng() % c.flat.size();
    c.flat.GatherInto(ids, &workspace);
    const FlatDataset want = c.flat.Gather(ids);
    ASSERT_EQ(workspace.size(), want.size());
    ExpectWellFormed(workspace);
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectSampleEqual(want, i, workspace, i);
    }
  }
}

TEST(FlatDatasetPropertyTest, WorkspaceReuseNeverLeaksStaleSamples) {
  // The staleness fuzz: cycle ONE workspace through fills from different
  // source datasets with different schemas and wildly varying sizes —
  // large fill, then small, then large again. Any buffer not exactly
  // resized/overwritten shows up as a stale sample or a fat tail.
  std::mt19937_64 rng(404);
  std::vector<RandomCase> sources;
  for (int s = 0; s < 4; ++s) sources.push_back(MakeRandomCase(rng, 60));
  FlatDataset workspace;
  for (int iter = 0; iter < 60; ++iter) {
    const RandomCase& c = sources[rng() % sources.size()];
    // Alternate big and tiny fills to maximize leftover capacity.
    const size_t n =
        (iter % 2 == 0) ? 1 + rng() % 3 : 1 + rng() % (2 * c.flat.size());
    std::vector<uint64_t> ids(n);
    for (auto& id : ids) id = rng() % c.flat.size();
    c.flat.GatherInto(ids, &workspace);
    ASSERT_EQ(workspace.size(), n);
    ASSERT_EQ(workspace.schema().num_tables(), c.schema.num_tables());
    ExpectWellFormed(workspace);
    for (size_t i = 0; i < n; ++i) {
      ExpectSampleEqual(c.flat, ids[i], workspace, i);
    }
  }
}

TEST(FlatDatasetPropertyTest, BatchViewsCarryDatasetAbsoluteOffsets) {
  // The rebase contract kernels rely on: a view over samples [begin, end)
  // exposes the dataset-level CSR offsets verbatim (front == the dataset
  // start, not 0), and indices are addressed relative to offsets.front().
  std::mt19937_64 rng(505);
  for (int iter = 0; iter < 20; ++iter) {
    RandomCase c = MakeRandomCase(rng);
    const size_t batch_size = 1 + rng() % (c.flat.size() + 2);
    const auto views = MakeBatchViews(c.flat, batch_size, iter % 2 == 0);
    ASSERT_EQ(views.size(), (c.flat.size() + batch_size - 1) / batch_size);
    size_t begin = 0;
    for (const BatchView& view : views) {
      const size_t b = view.batch_size();
      ASSERT_GT(b, 0u);
      ASSERT_LE(begin + b, c.flat.size());
      uint64_t view_lookups = 0;
      for (size_t t = 0; t < c.schema.num_tables(); ++t) {
        const auto offsets = view.offsets(t);
        const auto all = c.flat.offsets(t);
        ASSERT_EQ(offsets.size(), b + 1);
        EXPECT_EQ(offsets.front(), all[begin]) << "absolute-offset contract";
        EXPECT_EQ(offsets.back(), all[begin + b]);
        // Rebasing by front() yields each sample's lookups exactly.
        for (size_t i = 0; i < b; ++i) {
          const auto want = c.flat.lookups(t, begin + i);
          const auto have = view.indices(t).subspan(
              offsets[i] - offsets.front(), offsets[i + 1] - offsets[i]);
          ASSERT_EQ(have.size(), want.size());
          for (size_t k = 0; k < want.size(); ++k) {
            EXPECT_EQ(have[k], want[k]);
          }
        }
        view_lookups += offsets.back() - offsets.front();
      }
      EXPECT_EQ(view.TotalLookups(), view_lookups);
      for (size_t i = 0; i < b; ++i) {
        EXPECT_EQ(view.labels[i], c.flat.label(begin + i));
      }
      begin += b;
    }
    EXPECT_EQ(begin, c.flat.size());
  }
}

}  // namespace
}  // namespace fae
