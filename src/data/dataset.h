#ifndef FAE_DATA_DATASET_H_
#define FAE_DATA_DATASET_H_

#include <cstdint>
#include <vector>

#include "data/flat_dataset.h"
#include "data/schema.h"
#include "stats/access_profile.h"

namespace fae {

/// In-memory dataset: a schema plus its training inputs. The paper
/// preprocesses the whole dataset once (§III-B); keeping it in memory makes
/// the static FAE passes and the training epochs deterministic and fast.
///
/// Storage is a flat structure-of-arrays (`FlatDataset`) — every pass that
/// walks the dataset (Embedding Logger, Input Processor, epochs) streams
/// three contiguous buffers instead of chasing per-sample vectors.
class Dataset {
 public:
  explicit Dataset(FlatDataset flat) : flat_(std::move(flat)) {}

  const DatasetSchema& schema() const { return flat_.schema(); }
  size_t size() const { return flat_.size(); }

  /// Flat SoA storage — the zero-copy path for batch views and streaming
  /// passes.
  const FlatDataset& flat() const { return flat_; }

  /// Builds an access profile from the given sample indices (the Embedding
  /// Logger's job, §III-A2). Passing all indices profiles the full dataset.
  AccessProfile ProfileAccesses(const std::vector<uint64_t>& which) const;

  /// Convenience: profile every sample.
  AccessProfile ProfileAllAccesses() const;

  /// Index lists [0, n*(1-test_fraction)) and the remainder, for
  /// train/test splits matching the paper's per-dataset evaluation.
  struct Split {
    std::vector<uint64_t> train;
    std::vector<uint64_t> test;
  };
  Split MakeSplit(double test_fraction) const;

 private:
  FlatDataset flat_;
};

}  // namespace fae

#endif  // FAE_DATA_DATASET_H_
