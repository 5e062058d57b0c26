#ifndef FAE_ENGINE_STEP_ACCOUNTANT_H_
#define FAE_ENGINE_STEP_ACCOUNTANT_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "data/batch_view.h"
#include "models/rec_model.h"
#include "sim/cost_model.h"
#include "sim/timeline.h"

namespace fae {

/// Gathers through a GPU-side cache index (hash/indirection) run ~1.5x a
/// direct gather. One factor for every cache model — the transparent-cache
/// comparator, the trainer's lookahead oracle cache and the serving cache
/// tier (whose sharded-replica peer-link hop it also covers) — so they
/// stay comparable.
inline constexpr double kCacheIndirection = 1.5;

/// Modeled pipelining for the baseline and FAE drivers (comparator
/// placements ignore it). A pure cost-model overlay: the host trains every
/// mode on the same batch views with the identical math in the identical
/// order, so results are bit-exact across modes
/// (tests/engine/pipeline_determinism_test.cc); only the modeled wall
/// changes.
enum class PipelineMode {
  /// Fully serial: stage a batch, then step on it.
  kOff,
  /// Modeled double-buffered staging: batch b+1's gather/pack runs while
  /// batch b trains, hiding input prep under compute. Prefetch never
  /// crosses an epoch or schedule-chunk boundary (the sync points).
  kPrefetch,
  /// kPrefetch plus overlapped phases: the hybrid step's CPU and GPU lanes
  /// run concurrently, and FAE's cold-CPU chunks overlap the subsequent
  /// hot-GPU chunk (including the hot-slice DMA syncs).
  kOverlap,
};

std::string_view PipelineModeName(PipelineMode mode);

/// Input payload of one mini-batch — dense features, labels, CSR offsets
/// and lookup indices: what the modeled staging gather streams into a
/// workspace. Derived from the batch's shape only, so every pipeline mode
/// charges the same prep time.
uint64_t BatchInputBytes(const BatchView& v);

/// Per-step overlap bookkeeping for the baseline and FAE drivers
/// (DESIGN.md §11). Phase charges are identical in every mode; modes
/// differ only in the seconds credited back through
/// Timeline::AddOverlapSavedSeconds:
///   - kPrefetch (depth >= 2): batch b's staging gather is modeled to run
///     while step b-1 computes, so up to the previous step's unhidden
///     seconds of b's prep are hidden (depth 1 hides none; deeper rings
///     hide no more than depth 2);
///   - kOverlap: additionally the hybrid step's CPU and GPU lanes overlap,
///     hiding min(cpu, gpu) per step.
/// Prefetch cannot reach across a segment boundary (epoch / schedule
/// chunk): the first batch of a segment pays its prep in full.
class OverlapTracker {
 public:
  OverlapTracker(PipelineMode mode, size_t depth, Timeline* tl)
      : mode_(mode), depth_(depth), tl_(tl) {}

  void BeginSegment() { has_prev_ = false; }

  /// One training step: `prep` staging seconds, `total` compute seconds
  /// charged, `overlapped` the step's wall with its CPU/GPU lanes
  /// overlapped (== `total` for single-lane steps).
  void OnStep(double prep, double total, double overlapped);

  /// Chunk-window marks for FAE's hot/cold overlap (kOverlap only): a cold
  /// chunk's unhidden CPU seconds later overlap the next hot chunk's
  /// unhidden GPU+DMA seconds. "Unhidden" subtracts savings already
  /// recorded inside the window, so nothing is credited twice.
  void MarkChunkStart();
  double ChunkUnhiddenSeconds() const;

  PipelineMode mode() const { return mode_; }

 private:
  PipelineMode mode_;
  size_t depth_;
  Timeline* tl_;
  bool has_prev_ = false;
  double prev_unhidden_ = 0.0;
  double chunk_phase0_ = 0.0;
  double chunk_saved0_ = 0.0;
};

/// Charges one training step's work to the simulated hardware, per the
/// execution placements the paper compares:
///   - baseline (Fig 3): embeddings + sparse optimizer on CPU, MLPs on
///     GPUs, pooled activations/gradients over PCIe every batch;
///   - FAE hot batch: everything on the GPUs, gradients all-reduced once
///     over NVLink (§II-A);
///   - NvOPT: fp16 embeddings on the GPU for the tables that fit, the
///     remainder on the CPU baseline path (§V "Mixed-precision training");
///   - model-parallel: the sharded hot step with balanced owners (§I).
/// Every placement runs the same dense network and dense update.
class StepAccountant {
 public:
  explicit StepAccountant(const CostModel* cost_model)
      : cost_(cost_model) {}

  /// Lane split of a hybrid step: the CPU path, the GPU path, the serial
  /// synchronization segment that neither device can hide, and the timely
  /// prefetch DMA of an oracle-cached step (zero otherwise), which targets
  /// idle PCIe while both devices compute. The pipelined trainer
  /// (--pipeline=overlap) models intra-step CPU/GPU overlap from it
  /// through Timeline::AddOverlapSavedSeconds.
  struct BaselineParts {
    double cpu = 0.0;
    double gpu = 0.0;
    double serial = 0.0;
    double timely_dma = 0.0;
    double Total() const { return cpu + gpu + serial + timely_dma; }
    /// Modeled wall: the compute lanes (overlapped or serial), plus the
    /// serial segment, plus the timely DMA compute cannot cover.
    double Wall(bool overlap_lanes) const {
      const double compute = overlap_lanes ? std::max(cpu, gpu) : cpu + gpu;
      const double unhidden =
          timely_dma > compute ? timely_dma - compute : 0.0;
      return compute + serial + unhidden;
    }
    /// Steady-state wall with the CPU and GPU lanes overlapped.
    double Overlapped() const { return Wall(/*overlap_lanes=*/true); }
  };

  /// Hybrid CPU-GPU step (the paper's baseline). Fully synchronous: the
  /// modeled wall time is the sum of all phases.
  void ChargeBaselineStep(const BatchWork& w, Timeline& tl) const;

  /// ChargeBaselineStep with the lane split returned. Phase charges are
  /// identical to ChargeBaselineStep — only the caller's overlap
  /// bookkeeping differs, which keeps checkpointed timelines byte-equal
  /// across pipeline modes.
  BaselineParts ChargeBaselineStepParts(const BatchWork& w,
                                        Timeline& tl) const;

  /// The bytes a CPU step's backward scatter and sparse optimizer still
  /// process under stale-embedding update skipping
  /// (engine/staleness_tracker.h): rows frozen by the tracker keep serving
  /// forward lookups but are neither scattered into nor updated. Derived
  /// by the trainer from the tracker's per-step decisions.
  struct StaleSkipTraffic {
    uint64_t live_lookup_bytes = 0;   // gradient scatter still performed
    uint64_t live_touched_bytes = 0;  // rows the optimizer still visits
  };

  /// ChargeBaselineStepParts with only the live rows' backward scatter and
  /// sparse optimizer work; the forward gathers, activation transfers,
  /// dense network and all-reduce are the plain step's. The plain step is
  /// the all-live case (w.embedding_read_bytes, w.touched_bytes).
  BaselineParts ChargeBaselineStepParts(const BatchWork& w,
                                        const StaleSkipTraffic& live,
                                        Timeline& tl) const;

  /// Gather/pack of one mini-batch into a staging workspace on the CPU
  /// (the modeled staging ring's per-batch work). Charged in every pipeline
  /// mode; prefetching modes hide it under the previous step via
  /// Timeline::AddOverlapSavedSeconds. Returns the charged seconds.
  double ChargeInputPrep(uint64_t batch_bytes, Timeline& tl) const;

  /// Pure-GPU data-parallel step for a hot mini-batch.
  void ChargeHotStep(const BatchWork& w, Timeline& tl) const;

  /// Hot-slice broadcast CPU -> every GPU (entering a hot phase / initial
  /// replication).
  void ChargeSyncToGpus(uint64_t hot_bytes, Timeline& tl) const;

  /// Hot-slice copy-back GPU -> CPU (leaving a hot phase).
  void ChargeSyncToCpu(uint64_t hot_bytes, Timeline& tl) const;

  /// Step with every embedding table on one owning GPU: owners gather and
  /// update their tables for the whole global batch, so the step waits on
  /// the most loaded one (`max_device_lookup_bytes` gathered,
  /// `max_device_optimizer_bytes` streamed by the sparse optimizer, 3x the
  /// owner's touched bytes); the pooled activations are exchanged
  /// all-to-all, split between NVLink (intra-node peers) and the network
  /// (inter-node peers) by peer count. Two callers:
  ///   - the model-parallel comparator, with balanced owners (1/g of the
  ///     lookups and of 3x the touched bytes each);
  ///   - --sharding=lpt (sim/partition.h PartitionLpt), which charges it
  ///     into a *scratch* timeline and prices it against the plain
  ///     ChargeHotStep — the real timeline's charges never change with
  ///     sharding, keeping checkpoints byte-equal across modes.
  void ChargeShardedHotStep(const BatchWork& w,
                            uint64_t max_device_lookup_bytes,
                            uint64_t max_device_optimizer_bytes,
                            Timeline& tl) const;

  /// One hot-slice sync under --sharding=lpt, either direction: each
  /// shard moves once between the CPU masters and its owner, per-GPU PCIe
  /// links in parallel, so the modeled time is the largest single-device
  /// shard's. Remote owners' shards also hop the network, per-node links
  /// in parallel.
  void ChargeShardedSync(uint64_t shard_bytes_total, uint64_t max_shard_bytes,
                         Timeline& tl) const;

  /// NvOPT step: `table_on_gpu[t]` marks tables resident on the GPU in
  /// fp16; `dim` is the embedding dim; `batch_size` the global batch.
  void ChargeNvOptStep(const BatchWork& w,
                       const std::vector<bool>& table_on_gpu, size_t dim,
                       size_t batch_size, Timeline& tl) const;

  /// Transparent-GPU-cache step (UVM / HugeCTR-style): the hottest rows
  /// live in a per-GPU cache of the same budget L as FAE's hot slice, but
  /// mini-batches are *not* reorganized, so nearly every batch carries
  /// misses that stall on the CPU (the paper's Fig 4 argument).
  /// `hit_lookup_bytes`/`miss_lookup_bytes` partition the batch's gather
  /// traffic; `miss_touched_bytes` is the missed rows' optimizer payload.
  void ChargeCacheStep(const BatchWork& w, uint64_t hit_lookup_bytes,
                       uint64_t miss_lookup_bytes,
                       uint64_t miss_touched_bytes, Timeline& tl) const;

  /// One cold step's byte traffic under the lookahead oracle cache
  /// (engine/lookahead_cache.h), derived by the trainer from the cache's
  /// StepCharge: lookup/touched bytes split by residency, plus the cache's
  /// own DMA. Stale-refresh bytes ride inside the prefetch fields.
  struct OracleCacheTraffic {
    uint64_t hit_lookup_bytes = 0;
    uint64_t miss_lookup_bytes = 0;
    uint64_t miss_touched_bytes = 0;
    uint64_t hit_touched_bytes = 0;
    uint64_t timely_prefetch_bytes = 0;  // shipped >= 1 step ahead
    uint64_t late_prefetch_bytes = 0;    // fetched at the step itself
    uint64_t writeback_bytes = 0;        // dirty evictions
  };

  /// Oracle-cached cold step (lookahead cache resident rows on the GPUs,
  /// sharded like model-parallel tables; peer reads fold into the cache
  /// indirection factor). Misses fall back to the plain hybrid path with
  /// activation traffic scaled by the miss share. The trainer charges it
  /// into a scratch timeline, prices its lanes against the plain step, and
  /// reads the timeline's PCIe bytes as the cache's effective transfer;
  /// the real timeline never carries it, which keeps checkpoints
  /// byte-identical cache on/off.
  BaselineParts ChargeOracleCacheStep(const BatchWork& w,
                                      const OracleCacheTraffic& t,
                                      Timeline& tl) const;

  const CostModel& cost_model() const { return *cost_; }

 private:
  /// The dense network on the GPUs, data-parallel over the batch shards:
  /// forward, then a backward of twice its FLOPs. Adds both to
  /// `lanes->gpu` when given.
  void ChargeDenseNetwork(const BatchWork& w, Timeline& tl,
                          BaselineParts* lanes = nullptr) const;

  /// The dense update: one all-reduce of the dense gradients plus
  /// `embedding_grad_bytes` riding along, with its link bytes, then the
  /// dense optimizer on the GPUs. Adds the all-reduce to `lanes->serial`
  /// and the optimizer to `lanes->gpu` when given.
  void ChargeDenseUpdate(const BatchWork& w, uint64_t embedding_grad_bytes,
                         Timeline& tl, BaselineParts* lanes = nullptr) const;

  const CostModel* cost_;
};

}  // namespace fae

#endif  // FAE_ENGINE_STEP_ACCOUNTANT_H_
