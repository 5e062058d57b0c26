#ifndef FAE_SIM_TIMELINE_H_
#define FAE_SIM_TIMELINE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace fae {

/// Training-phase taxonomy used in the paper's latency breakdown (Fig 14).
enum class Phase : int {
  kEmbeddingForward = 0,   // embedding bag lookups + pooling
  kMlpForward,             // bottom/top MLP (and attention) forward
  kMlpBackward,            // dense backward
  kEmbeddingBackward,      // scatter of embedding gradients
  kOptimizerDense,         // SGD over MLP parameters
  kOptimizerSparse,        // SGD over touched embedding rows
  kCpuGpuTransfer,         // activations/gradients over PCIe
  kAllReduce,              // gradient all-reduce over NVLink
  kEmbeddingSync,          // FAE-only: hot-table sync at hot<->cold swaps
  kNetwork,                // inter-node traffic (multi-node clusters only)
  kFaultRecovery,          // retry backoff + re-sync after injected faults
  kInputPrep,              // mini-batch gather/pack into staging buffers
  kNumPhases,
};

std::string_view PhaseName(Phase phase);

/// Accumulates modeled seconds per phase plus per-device busy time and
/// link traffic, from which wall time, breakdowns (Fig 14), communication
/// tables (Table V) and power (Table VI) are derived.
class Timeline {
 public:
  /// Accumulator snapshot for checkpoint/resume: restoring it reproduces
  /// the phase/traffic/busy-time accumulators of an uninterrupted run.
  ///
  /// Deliberately excludes the overlap accumulator (AddOverlapSavedSeconds):
  /// phase charges are identical across all --pipeline modes, so checkpoints
  /// written by a serial and a pipelined run are byte-identical — the
  /// pipeline determinism contract (DESIGN.md §11). The cost: a resumed
  /// pipelined run's overlap wall stats restart from zero, so it reports
  /// less overlap_saved_seconds (hence higher modeled wall / lower
  /// OverlapFraction) than the same run uninterrupted.
  struct State {
    std::array<double, static_cast<int>(Phase::kNumPhases)> seconds{};
    double cpu_busy = 0.0;
    double gpu_busy = 0.0;
    uint64_t pcie_bytes = 0;
    uint64_t nvlink_bytes = 0;
    uint64_t network_bytes = 0;
  };

  State state() const {
    return State{seconds_,    cpu_busy_,    gpu_busy_,
                 pcie_bytes_, nvlink_bytes_, network_bytes_};
  }
  void set_state(const State& state) {
    seconds_ = state.seconds;
    cpu_busy_ = state.cpu_busy;
    gpu_busy_ = state.gpu_busy;
    pcie_bytes_ = state.pcie_bytes;
    nvlink_bytes_ = state.nvlink_bytes;
    network_bytes_ = state.network_bytes;
  }

  void Charge(Phase phase, double seconds) {
    seconds_[static_cast<int>(phase)] += seconds;
  }

  /// Also attributes the time as busy time on CPU or GPU.
  void ChargeCpu(Phase phase, double seconds) {
    Charge(phase, seconds);
    cpu_busy_ += seconds;
  }
  void ChargeGpu(Phase phase, double seconds) {
    Charge(phase, seconds);
    gpu_busy_ += seconds;
  }

  void AddPcieBytes(uint64_t bytes) { pcie_bytes_ += bytes; }
  void AddNvlinkBytes(uint64_t bytes) { nvlink_bytes_ += bytes; }
  void AddNetworkBytes(uint64_t bytes) { network_bytes_ += bytes; }

  double seconds(Phase phase) const {
    return seconds_[static_cast<int>(phase)];
  }

  /// Overlap accounting for the pipelined trainer (--pipeline): records
  /// modeled seconds *hidden* by overlapping work on disjoint resources
  /// (batch prefetch under compute, cold-CPU phases under hot-GPU phases,
  /// DMA syncs under compute). Phase charges always record the full device
  /// work; the saving is tracked separately so it can be subtracted from
  /// the wall without perturbing the per-phase breakdown — and so the
  /// checkpointed State stays identical across pipeline modes.
  void AddOverlapSavedSeconds(double seconds) { overlap_saved_ += seconds; }
  double overlap_saved_seconds() const { return overlap_saved_; }

  /// Lookahead-oracle cache accounting (engine/lookahead_cache.h). Like the
  /// overlap accumulator, all of it lives *outside* State: phase charges
  /// are identical cache-on and cache-off, and the cache's effect on the
  /// modeled wall is a separately-tracked credit — so checkpoints stay
  /// byte-identical across cache modes and a resume may switch them.
  /// The saving may go negative per event (boundary writebacks, an
  /// undersized budget): the net is honest, not clamped per step.
  struct CacheCounters {
    uint64_t hits = 0;             // lookups served from the GPU cache
    uint64_t misses = 0;           // lookups on the CPU fallback path
    uint64_t stale_refreshes = 0;  // resident rows refetched after a
                                   // master-side write invalidated them
    uint64_t prefetch_bytes = 0;   // rows shipped ahead of use
    uint64_t writeback_bytes = 0;  // dirty rows flushed on evict/boundary
    /// Cold-step CPU<->GPU transfer, plain vs with the cache (activation
    /// round trips scaled by the miss share, plus all cache DMA). The
    /// bench's ">= 2x transfer reduction" gate reads these.
    uint64_t plain_transfer_bytes = 0;
    uint64_t effective_transfer_bytes = 0;
  };
  void AddCacheSavedSeconds(double seconds) { cache_saved_ += seconds; }
  double cache_saved_seconds() const { return cache_saved_; }
  CacheCounters& cache_counters() { return cache_counters_; }
  const CacheCounters& cache_counters() const { return cache_counters_; }

  /// Sharded-placement accounting (--sharding=lpt|statistical): the real
  /// timeline always carries the replicate-mode charges; the trainer
  /// prices the sharded variant of each hot step and sync into a scratch
  /// timeline and records the difference here. Outside State like the
  /// overlap and cache accumulators, so checkpoints stay byte-identical
  /// across sharding modes and a resume may switch them. Negative totals
  /// are expected — whole-table LPT typically *loses* to replication (the
  /// all-to-all it adds dwarfs the sync it saves) and that loss must show
  /// in the modeled wall.
  void AddShardingSavedSeconds(double seconds) { sharding_saved_ += seconds; }
  double sharding_saved_seconds() const { return sharding_saved_; }

  /// Stale-skip accounting (--stale-skip=cold|all): per-row optimizer
  /// updates skipped for rows whose update-magnitude EMA fell below the
  /// guard threshold (engine/staleness_tracker.h). The real timeline
  /// always carries the full backward+step charges; the trainer prices
  /// the skipped variant of each CPU step into a scratch timeline and
  /// records the difference here. Outside State like the other overlay
  /// accumulators, so checkpoints stay byte-identical across stale-skip
  /// modes and a resume may switch them — and so a second saved by the
  /// pipeline overlap is never hidden twice.
  struct StaleSkipCounters {
    uint64_t skipped_rows = 0;      // row-updates elided this run
    uint64_t updated_rows = 0;      // row-updates applied this run
    uint64_t reactivated_rows = 0;  // rows un-frozen by the accuracy guard
    uint64_t guard_tightens = 0;    // guard halved the threshold (loss rose)
    uint64_t guard_widens = 0;      // guard doubled it (steady improvement)
  };
  void AddStaleSkipSavedSeconds(double seconds) { stale_skip_saved_ += seconds; }
  double stale_skip_saved_seconds() const { return stale_skip_saved_; }
  StaleSkipCounters& stale_skip_counters() { return stale_skip_counters_; }
  const StaleSkipCounters& stale_skip_counters() const {
    return stale_skip_counters_;
  }

  /// Sum of per-phase seconds regardless of overlap (total device work):
  /// the modeled wall-clock of the synchronous execution.
  double PhaseSumSeconds() const;

  /// PhaseSumSeconds() minus the overlap, cache, sharding, and stale-skip
  /// savings: the modeled wall-clock of the pipelined execution. Equals
  /// PhaseSumSeconds() when nothing overlapped and no overlay feature ran.
  double OverlappedTotalSeconds() const;

  /// Fraction of the serial wall-clock hidden by overlap, in [0, 1).
  double OverlapFraction() const;

  double cpu_busy_seconds() const { return cpu_busy_; }
  double gpu_busy_seconds() const { return gpu_busy_; }
  uint64_t pcie_bytes() const { return pcie_bytes_; }
  uint64_t nvlink_bytes() const { return nvlink_bytes_; }
  uint64_t network_bytes() const { return network_bytes_; }

  /// Multi-line per-phase report with percentages.
  std::string Report() const;

 private:
  std::array<double, static_cast<int>(Phase::kNumPhases)> seconds_{};
  /// Not part of State — see the State doc comment.
  double overlap_saved_ = 0.0;
  /// Not part of State either — see the CacheCounters doc comment.
  double cache_saved_ = 0.0;
  /// Not part of State either — see AddShardingSavedSeconds.
  double sharding_saved_ = 0.0;
  /// Not part of State either — see AddStaleSkipSavedSeconds.
  double stale_skip_saved_ = 0.0;
  CacheCounters cache_counters_;
  StaleSkipCounters stale_skip_counters_;
  double cpu_busy_ = 0.0;
  double gpu_busy_ = 0.0;
  uint64_t pcie_bytes_ = 0;
  uint64_t nvlink_bytes_ = 0;
  uint64_t network_bytes_ = 0;
};

}  // namespace fae

#endif  // FAE_SIM_TIMELINE_H_
