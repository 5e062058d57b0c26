#ifndef FAE_ENGINE_CHECKPOINT_H_
#define FAE_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/shuffle_scheduler.h"
#include "engine/metrics.h"
#include "engine/staleness_tracker.h"
#include "models/rec_model.h"
#include "sim/timeline.h"
#include "util/random.h"
#include "util/statusor.h"

namespace fae {

/// Checkpoint/resume policy, part of TrainOptions.
struct CheckpointOptions {
  /// Checkpoint path: the chain's base, with its deltas at `path.<n>`
  /// (CheckpointIo). Empty disables both saving and resuming.
  std::string path;
  /// Save whenever the completed-iteration count crosses a multiple of
  /// this (at batch boundaries for the baseline, at schedule-chunk
  /// boundaries for FAE, where the CPU master copy is authoritative).
  /// 0 disables periodic saves.
  uint64_t every_steps = 0;
  /// Resume from the chain at `path` before training. The checkpoint must
  /// match the run (same mode, options, and dataset) or training fails
  /// with FailedPrecondition rather than silently diverging.
  bool resume = false;
};

/// Everything beyond the model weights that a resumed run needs to
/// reproduce an uninterrupted run's loss curve exactly: positional
/// counters, the RNG stream, metric accumulators, the FAE scheduler's
/// adaptive state, and the modeled timeline.
///
/// `mode` is the TrainMode as an integer (this header is included by
/// trainer.h, so it cannot name the enum).
struct TrainerCheckpoint {
  uint32_t mode = 0;
  /// FaeFormat::Fingerprint of the training dataset; a checkpoint taken
  /// on different data is rejected at resume.
  uint64_t dataset_fingerprint = 0;
  /// Hash of every TrainOptions field that affects numerics; ditto.
  uint64_t options_fingerprint = 0;

  uint64_t epoch = 0;            // epoch in progress when saved
  uint64_t iteration = 0;        // completed training batches, global
  uint64_t batch_in_epoch = 0;   // completed batches within `epoch`
  uint64_t hot_batches = 0;      // FAE-only counters
  uint64_t cold_batches = 0;
  uint64_t sync_bytes = 0;

  Xoshiro256::State rng;
  RunningMetric::State metric;   // since-start accumulator
  RunningMetric::State window;   // since-last-curve-point accumulator
  ShuffleScheduler::State scheduler;  // FAE-only
  Timeline::State timeline;
  std::vector<CurvePoint> curve;
  /// Staleness-tracker state when stale-update skipping was active at save
  /// time (TrainOptions::stale_skip != off), empty tables otherwise. The
  /// knob itself is fingerprint-exempt: a resume that keeps skipping on
  /// restores this verbatim (bit-exact continuation), a resume that turns
  /// it off ignores it, and a resume that turns it on starts a fresh
  /// tracker — all three reconcile explicitly in the trainer.
  bool has_staleness = false;
  StalenessTracker::State staleness;
};

/// Serializes a TrainerCheckpoint plus the model state (dense parameters
/// and embedding tables) into crash-safe containers: durable temp+rename
/// writes (BinaryWriter::Commit), and a whole-file CRC-32 footer verified
/// before a single field is parsed — a checkpoint corrupted or truncated
/// by a crash is reported as a Status and never half-restored into a live
/// model.
///
/// A checkpoint is a chain (DESIGN.md §7): a *base* at `path` holding every
/// table whole, then *deltas* at `path.1`, `path.2`, ... (DeltaPath), each
/// holding the trainer state, the dense parameters and only the embedding
/// rows written since the previous save (a compressed table goes in
/// whole). A delta names its base by the base's iteration and CRC. One
/// container version serves both kinds.
class CheckpointIo {
 public:
  /// What a resuming run requires of the checkpoint. Checked after the
  /// header but *before* any model weights are restored, so a checkpoint
  /// from a different run can never partially overwrite a live model.
  struct Expectation {
    uint32_t mode = 0;
    uint64_t dataset_fingerprint = 0;
    uint64_t options_fingerprint = 0;
  };

  /// Writes a base to `path`, complete and loadable on its own, then
  /// removes the deltas of any earlier chain at `path`.
  static Status Save(const std::string& path, const TrainerCheckpoint& ck,
                     RecModel& model);

  /// What Load restored.
  struct Loaded {
    /// The trainer state of the newest save applied.
    TrainerCheckpoint state;
    /// Deltas applied after the base.
    uint64_t deltas = 0;
    /// OK when the chain was applied to its end. Otherwise a DataLoss that
    /// names the first delta that could not be applied (corrupt,
    /// truncated, of another version, or missing while a later one is on
    /// disk): the chain's consistent prefix is restored, and neither that
    /// delta nor any after it.
    Status damage;
  };

  /// Restores the chain at `path` into `model` in place: the base, then
  /// each delta in order, each checked whole before it is applied. A delta
  /// that names another base is a leftover of an earlier chain (a crash
  /// between a new base and the removal of the old deltas) and ends the
  /// chain without damage. NotFound without a base, DataLoss for a damaged
  /// base, FailedPrecondition when `expect` does not match; a delta or a
  /// directory that cannot be read fails the load with the reader's error
  /// rather than shortening the chain.
  static StatusOr<Loaded> Load(const std::string& path, RecModel& model,
                               const Expectation* expect = nullptr);

  /// `path.<n>`: where the n-th delta (n >= 1) after the base lives.
  static std::string DeltaPath(const std::string& path, uint64_t n);

  /// The chain's files on disk: `path` when present, then every delta file
  /// next to it in index order. IOError when the directory cannot be
  /// listed.
  static StatusOr<std::vector<std::string>> ChainFiles(
      const std::string& path);
};

/// Writes one run's saves as a chain at one path. A save is a base at the
/// chain's first save (a resumed run starts a new chain too) and whenever
/// the deltas since the base would grow larger than the base; otherwise it
/// is a delta.
class CheckpointChain {
 public:
  /// A save's kind, as its kind word on disk.
  enum class Kind : uint32_t { kBase = 0, kDelta = 1 };
  /// One committed save.
  struct Saved {
    Kind kind = Kind::kBase;
    uint64_t bytes = 0;
    /// The whole-file CRC, by which a delta names its base.
    uint32_t crc = 0;
  };

  explicit CheckpointChain(std::string path) : path_(std::move(path)) {}

  /// Saves `ck` and `model`. `written` holds for each table the ids of the
  /// rows written since the previous save, each once; a delta carries
  /// exactly those rows.
  StatusOr<Saved> Save(const TrainerCheckpoint& ck, RecModel& model,
                       const std::vector<std::vector<uint32_t>>& written);

 private:
  std::string path_;
  bool has_base_ = false;
  uint64_t base_iteration_ = 0;
  uint32_t base_crc_ = 0;
  uint64_t base_bytes_ = 0;
  uint64_t delta_bytes_ = 0;  // all deltas since the base
  uint64_t deltas_ = 0;
};

}  // namespace fae

#endif  // FAE_ENGINE_CHECKPOINT_H_
