#ifndef FAE_ENGINE_BATCH_PIPELINE_H_
#define FAE_ENGINE_BATCH_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "data/batch_view.h"
#include "data/flat_dataset.h"

namespace fae {

/// Double-buffered mini-batch prefetcher: a dedicated producer thread
/// gathers/packs upcoming batches into a ring of reusable FlatDataset
/// workspaces while the consumer computes on the current one, so input
/// staging overlaps training.
///
/// No library code calls it: the Trainer trains every --pipeline mode on
/// zero-copy views and only models the staging (DESIGN.md §11), because
/// the real thread measured slower than no staging at all. The class
/// stays for hostbench's replay of the FAE loop (hostbench/
/// train_workload.cc) and goes when that replay does (ROADMAP items 2
/// and 5).
///
/// Work arrives in *segments* (one per FAE schedule chunk in the replay):
/// Begin() hands the producer an ordered list of batch specs, and the
/// consumer then alternates Acquire()/Release() exactly once per spec, in
/// order. Segments are the pipeline's sync boundaries — the producer never
/// runs ahead into the next segment, which is what keeps a staged run's
/// math bit-identical to a serial one (the scheduler may change the
/// upcoming batch mix at a boundary, so nothing beyond it may be staged
/// speculatively).
///
/// Determinism contract: Acquire() returns batches in exactly Begin()
/// order, and each staged batch is a sample-for-sample copy of what the
/// trainer views zero-copy (GatherInto produces zero-based CSR offsets;
/// kernels rebase via offsets.front(), so the results are bit-identical).
/// The producer thread touches only its own slot buffers — it never reads
/// or writes model state.
///
/// Shutdown: the destructor works with any number of unconsumed specs in
/// flight (e.g. an injected crash abandoning a segment) — it signals stop,
/// wakes the producer out of any wait, and joins.
class BatchPipeline {
 public:
  /// One batch to stage: gather `ids` (in order) from `source`. The span
  /// and the source must stay valid until the batch is Release()d or the
  /// pipeline is destroyed.
  struct Spec {
    const FlatDataset* source = nullptr;
    std::span<const uint64_t> ids;
    bool hot = false;
  };

  /// `depth` is the staging-ring size (clamped to >= 1): how many batches
  /// the producer may run ahead of the consumer. 1 means stage-then-train
  /// with no lookahead; 2 is classic double buffering.
  explicit BatchPipeline(size_t depth);
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// Starts a new segment. The previous segment must be fully consumed
  /// (every Acquire matched by a Release, all specs drained).
  void Begin(std::vector<Spec> specs);

  /// Blocks until the next batch (in Begin order) is staged and returns a
  /// view into its slot workspace, valid until the matching Release().
  const BatchView& Acquire();

  /// Returns the slot just acquired to the producer for reuse.
  void Release();

  size_t depth() const { return slots_.size(); }

 private:
  struct Slot {
    FlatDataset workspace;
    BatchView view;
    /// Written by the producer under the lock after the (unlocked) gather;
    /// the consumer only touches workspace/view after observing it true,
    /// and the producer only refills after the consumer resets it — the
    /// flag's lock acquire/release orders the unlocked buffer accesses.
    bool filled = false;
  };

  void ProducerLoop();

  std::vector<Slot> slots_;

  std::mutex mu_;
  std::condition_variable producer_cv_;
  std::condition_variable consumer_cv_;
  std::vector<Spec> specs_;   // current segment
  size_t next_fill_ = 0;      // next spec index the producer stages
  size_t next_consume_ = 0;   // next spec index the consumer acquires
  bool holding_ = false;      // consumer is between Acquire and Release
  bool stop_ = false;

  std::thread producer_;
};

}  // namespace fae

#endif  // FAE_ENGINE_BATCH_PIPELINE_H_
