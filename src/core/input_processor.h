#ifndef FAE_CORE_INPUT_PROCESSOR_H_
#define FAE_CORE_INPUT_PROCESSOR_H_

#include <cstdint>
#include <vector>

#include "core/embedding_classifier.h"
#include "data/dataset.h"

namespace fae {

/// Hot/cold split of a dataset's training inputs.
struct ProcessedInputs {
  /// Sample ids whose *every* embedding lookup hits a hot entry.
  std::vector<uint64_t> hot_ids;
  /// Everything else.
  std::vector<uint64_t> cold_ids;
  /// Wall time of the classification pass (Fig 11's metric).
  double seconds = 0.0;

  double HotFraction() const {
    const size_t n = hot_ids.size() + cold_ids.size();
    return n == 0 ? 0.0
                  : static_cast<double>(hot_ids.size()) /
                        static_cast<double>(n);
  }
};

/// The paper's Input Processor (§III-B): classifies each sparse input as
/// hot iff all of its lookups are hot (one parallelized pass over S_I), and
/// packs the two classes into *pure* hot/cold mini-batches so a hot batch
/// never stalls on a CPU-resident embedding (§II-B(1), Fig 4).
class InputProcessor {
 public:
  explicit InputProcessor(size_t num_threads) : num_threads_(num_threads) {}

  /// Classifies the samples at `which` (typically the training split).
  /// Relative order within each class is preserved.
  ProcessedInputs Classify(const Dataset& dataset, const HotSet& hot_set,
                           const std::vector<uint64_t>& which) const;

  /// Shuffles each class (seeded Fisher-Yates, hot class first) and
  /// gathers it into one FlatDataset, so pure mini-batches are zero-copy
  /// views into it (see MakeBatchViews).
  struct PackedFlat {
    FlatDataset hot;
    FlatDataset cold;
  };
  static PackedFlat PackFlat(const Dataset& dataset,
                             const ProcessedInputs& inputs, uint64_t seed);

 private:
  size_t num_threads_;
};

}  // namespace fae

#endif  // FAE_CORE_INPUT_PROCESSOR_H_
