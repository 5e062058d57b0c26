#ifndef FAE_ENGINE_STEP_ACCOUNTANT_H_
#define FAE_ENGINE_STEP_ACCOUNTANT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

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

/// Charges one training step's work to the simulated hardware, per the
/// execution placements the paper compares:
///   - baseline (Fig 3): embeddings + sparse optimizer on CPU, MLPs on
///     GPUs, pooled activations/gradients over PCIe every batch;
///   - FAE hot batch: everything on the GPUs, gradients all-reduced once
///     over NVLink (§II-A);
///   - NvOPT: fp16 embeddings on the GPU for the tables that fit, the
///     remainder on the CPU baseline path (§V "Mixed-precision training").
class StepAccountant {
 public:
  explicit StepAccountant(const CostModel* cost_model)
      : cost_(cost_model) {}

  /// Per-step time split into the CPU path, the GPU path, and the serial
  /// synchronization segment that neither device can hide. The pipelined
  /// trainer (--pipeline=overlap) uses the split to model intra-step
  /// CPU/GPU overlap through Timeline::AddOverlapSavedSeconds.
  struct BaselineParts {
    double cpu = 0.0;
    double gpu = 0.0;
    double serial = 0.0;
    double Total() const { return cpu + gpu + serial; }
    /// Steady-state wall with the CPU and GPU paths overlapped.
    double Overlapped() const { return std::max(cpu, gpu) + serial; }
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

  /// Hot step under --sharding=lpt: every hot table lives on one owning
  /// GPU (sim/partition.h PartitionLpt), so the step follows
  /// ChargeModelParallelStep generalized to multi-node. Owners gather and
  /// update their tables for the whole global batch, so the step waits on
  /// the most loaded one (`max_device_lookup_bytes`,
  /// `max_device_touched_bytes`); the pooled activations are exchanged
  /// all-to-all, split between NVLink (intra-node peers) and the network
  /// (inter-node peers) by peer count. The trainer charges this into a
  /// *scratch* timeline and prices it against the plain ChargeHotStep —
  /// the real timeline's charges never change with sharding, keeping
  /// checkpoints byte-equal across modes.
  void ChargeShardedHotStep(const BatchWork& w,
                            uint64_t max_device_lookup_bytes,
                            uint64_t max_device_touched_bytes,
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

  /// Model-parallel step: embedding tables sharded across the GPUs (no
  /// CPU), pooled activations/gradients exchanged all-to-all over NVLink
  /// every batch — the placement the paper calls suboptimal (§I: "using
  /// multiple GPUs simply for memory capacity is not optimal", GPU-GPU
  /// communication up to 60%).
  void ChargeModelParallelStep(const BatchWork& w, Timeline& tl) const;

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

  /// Lane split of an oracle-cached cold step. Unlike BaselineParts,
  /// timely prefetch DMA is its own lane: it targets idle PCIe while both
  /// devices compute, so the wall only sees whatever part of it compute
  /// cannot cover.
  struct OracleCacheParts {
    double cpu = 0.0;     // miss-path embedding work
    double gpu = 0.0;     // hit-path embedding work + dense network
    double serial = 0.0;  // activation/late/writeback DMA + all-reduce
    double timely_dma = 0.0;
    /// Effective CPU<->GPU bytes this step (miss activations + cache DMA)
    /// — the bench's transfer-reduction gate compares this against the
    /// plain step's 2x pooled-activation round trip.
    uint64_t transfer_bytes = 0;
    double Total() const { return cpu + gpu + serial + timely_dma; }
    /// Modeled wall: compute lanes (overlapped or not, matching the plain
    /// step it replaces), plus serial DMA, plus timely DMA not hidden
    /// under compute.
    double EffectiveSeconds(bool overlap_lanes) const {
      const double compute =
          overlap_lanes ? std::max(cpu, gpu) : cpu + gpu;
      const double unhidden =
          timely_dma > compute ? timely_dma - compute : 0.0;
      return compute + serial + unhidden;
    }
  };

  /// Oracle-cached cold step (lookahead cache resident rows on the GPUs,
  /// sharded like model-parallel tables; peer reads fold into the cache
  /// indirection factor). Misses fall back to the plain hybrid path with
  /// activation traffic scaled by the miss share. A pure price: the
  /// trainer compares it with the plain step and never charges it, which
  /// is what keeps checkpoints byte-identical cache on/off.
  OracleCacheParts OracleCacheStepParts(const BatchWork& w,
                                        const OracleCacheTraffic& t) const;

  const CostModel& cost_model() const { return *cost_; }

 private:
  const CostModel* cost_;
};

}  // namespace fae

#endif  // FAE_ENGINE_STEP_ACCOUNTANT_H_
