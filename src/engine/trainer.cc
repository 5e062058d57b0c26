#include "engine/trainer.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>

#include "core/embedding_replicator.h"
#include "core/fae_format.h"
#include "core/input_processor.h"
#include "core/shuffle_scheduler.h"
#include "engine/dirty_rows.h"
#include "engine/ring_limits.h"
#include "sim/partition.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fae {
namespace {

/// Bounded retry policy for transient device faults: exponential backoff
/// starting at 1 ms; a fault outliving the budget is a permanent device
/// loss and fails the run.
constexpr uint32_t kMaxFaultRetries = 5;
constexpr double kRetryBackoffSeconds = 0.001;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Builds the execution-core options from the trainer's richer set.
StepExecutor::Options ExecOptions(const TrainOptions& options) {
  StepExecutor::Options exec;
  exec.dense_lr = options.dense_lr;
  exec.sparse_lr = options.sparse_lr;
  exec.run_math = options.run_math;
  exec.fp16_embeddings = options.fp16_embeddings;
  exec.num_threads = options.num_threads;
  exec.eval_samples = options.eval_samples;
  exec.eval_batch = options.eval_batch;
  return exec;
}

std::vector<EmbeddingTable*> MasterTables(RecModel& model) {
  std::vector<EmbeddingTable*> tables;
  for (EmbeddingTable& t : model.tables()) tables.push_back(&t);
  return tables;
}

/// The cost-model overlays (DESIGN.md §13, §15, §16) behind one object.
/// The real timeline always carries a step's or a sync's plain charges;
/// an overlay prices the variant it models and credits the difference to
/// its own Timeline accumulator, so the phase charges — and with them the
/// checkpoint bytes — never change with an overlay knob. Set up once from
/// TrainOptions, it prices three things: the cold step (the oracle cache
/// or stale skipping; ValidateTrainOptions refuses the pair), the hot step
/// and the hot-slice syncs (sharding), and the cache's boundary
/// writebacks.
class StepOverlay {
 public:
  StepOverlay(const StepAccountant& accountant, const TrainOptions& options,
              const DatasetSchema& schema)
      : accountant_(accountant),
        overlap_lanes_(options.pipeline == PipelineMode::kOverlap),
        cache_on_(options.cache == CacheMode::kOracle),
        stale_on_(options.stale_skip != StaleSkipMode::kOff),
        lookahead_(options.cache_lookahead) {
    if (cache_on_) {
      LookaheadCache::Options copt;
      copt.budget_rows = options.cache_budget_rows;
      copt.lookahead = options.cache_lookahead;
      // Same per-row payload the FAE sync machinery ships: the embedding
      // vector plus the optimizer's row index word.
      copt.row_bytes = schema.embedding_dim * sizeof(float) + sizeof(uint32_t);
      cache_.Init(schema.table_rows, copt);
    }
    if (stale_on_) {
      StalenessTracker::Options sopt;
      sopt.threshold = options.stale_threshold;
      sopt.min_visits = static_cast<uint32_t>(options.stale_min_visits);
      staleness_.Init(schema.table_rows, sopt);
    }
  }

  bool cache_on() const { return cache_on_; }
  LookaheadCache& cache() { return cache_; }
  /// The tracker the fused step consults; null when skipping is off.
  StalenessTracker* staleness() { return stale_on_ ? &staleness_ : nullptr; }

  /// Places each hot table on one GPU by LPT over its hot access mass (the
  /// calibration counts of `p`'s post-degrade hot set) and records the
  /// placement in `report`. Sharding by bytes would balance capacity but
  /// leave the traffic wherever the skew put it.
  Status PlanSharding(const FaePlan& p, const DatasetSchema& schema,
                      int world, TrainReport& report) {
    const AccessProfile& profile = p.calibration.profile;
    if (profile.num_tables() != schema.num_tables()) {
      return Status::InvalidArgument(
          "--sharding=lpt needs a fresh plan: plans loaded from the "
          "FAE-format cache carry no per-row access profile to weigh the "
          "tables by (re-run calibration without --plan)");
    }
    const size_t num_tables = schema.num_tables();
    std::vector<uint64_t> mass(num_tables, 0);
    for (size_t t = 0; t < num_tables; ++t) {
      if (p.hot_set.table_all_hot(t)) {
        mass[t] = profile.table_total(t);
        continue;
      }
      const std::vector<uint64_t>& counts = profile.counts(t);
      const std::span<const uint8_t> mask = p.hot_set.mask(t);
      for (size_t r = 0; r < mask.size(); ++r) {
        if (mask[r]) mass[t] += counts[r];
      }
    }
    const Partition placement = PartitionLpt(mass, world);
    owner_ = placement.bin_of;
    std::vector<uint64_t> device_rows(world, 0);
    uint64_t rows_total = 0;
    for (size_t t = 0; t < num_tables; ++t) {
      device_rows[owner_[t]] += p.hot_set.HotCount(t);
      rows_total += p.hot_set.HotCount(t);
    }
    row_bytes_ = schema.embedding_dim * sizeof(float);
    hot_bytes_ = p.hot_bytes;
    shard_bytes_total_ = rows_total * row_bytes_;
    max_shard_bytes_ =
        *std::max_element(device_rows.begin(), device_rows.end()) *
        row_bytes_;
    device_lookups_.assign(world, 0);
    device_touched_.assign(world, 0);
    sharded_ = true;
    report.sharding_imbalance = placement.Imbalance();
    report.sharding_max_shard_bytes = max_shard_bytes_;
    return Status::OK();
  }

  /// The oracle window's feed: `push(i)` hands batch i of the current
  /// segment to the cache.
  void set_cache_feed(std::function<void(size_t)> push) {
    cache_feed_ = std::move(push);
  }

  /// Opens a cache segment over batches [begin, end): the first
  /// `cache_lookahead` batches enter the window, and each cold step hands
  /// the next one over as it retires, so the window stays exactly as far
  /// ahead as the lookahead permits.
  void BeginCacheSegment(size_t begin, size_t end) {
    if (!cache_on_) return;
    cache_.BeginSegment();
    segment_end_ = end;
    next_feed_ = begin;
    while (next_feed_ < std::min(end, begin + lookahead_)) {
      cache_feed_(next_feed_++);
    }
  }

  /// Prices a cold step under the cache or stale skipping against its
  /// plain `parts`, with the lanes overlapped (--pipeline=overlap) or
  /// serial like the plain step. Stale skipping reads the split the
  /// tracker counted during the math, so this runs after the math step.
  void PriceColdStep(const BatchWork& w,
                     const StepAccountant::BaselineParts& plain,
                     Timeline& tl) {
    const double plain_wall = plain.Wall(overlap_lanes_);
    if (cache_on_) {
      const LookaheadCache::StepCharge sc = cache_.OnStep();
      StepAccountant::OracleCacheTraffic t;
      const uint64_t lookups = sc.hit_lookups + sc.miss_lookups;
      if (lookups > 0) {
        t.hit_lookup_bytes =
            w.embedding_read_bytes * sc.hit_lookups / lookups;
        t.miss_lookup_bytes = w.embedding_read_bytes - t.hit_lookup_bytes;
      }
      const uint64_t rows = sc.hit_rows + sc.miss_rows;
      if (rows > 0) {
        t.hit_touched_bytes = w.touched_bytes * sc.hit_rows / rows;
        t.miss_touched_bytes = w.touched_bytes - t.hit_touched_bytes;
      }
      t.timely_prefetch_bytes = sc.timely_prefetch_bytes;
      t.late_prefetch_bytes = sc.late_prefetch_bytes;
      t.writeback_bytes = sc.writeback_bytes;
      Timeline scratch;
      const StepAccountant::BaselineParts cached =
          accountant_.ChargeOracleCacheStep(w, t, scratch);
      tl.AddCacheSavedSeconds(
          Bank(plain_wall - cached.Wall(overlap_lanes_)));
      Timeline::CacheCounters& cc = tl.cache_counters();
      cc.hits += sc.hit_lookups;
      cc.misses += sc.miss_lookups;
      cc.stale_refreshes += sc.stale_refreshes;
      cc.prefetch_bytes += sc.timely_prefetch_bytes + sc.late_prefetch_bytes;
      cc.writeback_bytes += sc.writeback_bytes;
      cc.plain_transfer_bytes += 2 * w.embedding_activation_bytes;
      cc.effective_transfer_bytes += scratch.pcie_bytes();
      if (next_feed_ < segment_end_) cache_feed_(next_feed_++);
    } else if (stale_on_) {
      const uint64_t skipped_rows = staleness_.step_skipped_rows();
      const uint64_t updated_rows = staleness_.step_updated_rows();
      Timeline::StaleSkipCounters& sc = tl.stale_skip_counters();
      sc.skipped_rows += skipped_rows;
      sc.updated_rows += updated_rows;
      // Nothing elided: the skipped step is the plain step (crediting an
      // exact 0.0 would only accumulate noise).
      if (skipped_rows == 0) return;
      StepAccountant::StaleSkipTraffic live;
      const uint64_t live_lookups = staleness_.step_live_lookups();
      const uint64_t lookups = staleness_.step_skipped_lookups() + live_lookups;
      live.live_lookup_bytes =
          lookups > 0 ? w.embedding_read_bytes * live_lookups / lookups
                      : w.embedding_read_bytes;
      live.live_touched_bytes =
          w.touched_bytes * updated_rows / (skipped_rows + updated_rows);
      Timeline scratch;
      const StepAccountant::BaselineParts skipped =
          accountant_.ChargeBaselineStepParts(w, live, scratch);
      tl.AddStaleSkipSavedSeconds(
          Bank(plain_wall - skipped.Wall(overlap_lanes_)));
    }
  }

  /// Prices a hot step, `plain_seconds` under replication, against the
  /// sharded placement: the batch's per-table lookups and touched rows,
  /// summed per owning device.
  void PriceHotStep(const BatchWork& w, double plain_seconds, Timeline& tl) {
    if (!sharded_) return;
    std::fill(device_lookups_.begin(), device_lookups_.end(), 0);
    std::fill(device_touched_.begin(), device_touched_.end(), 0);
    for (size_t t = 0; t < owner_.size(); ++t) {
      device_lookups_[owner_[t]] += w.per_table_lookups[t];
      device_touched_[owner_[t]] += w.per_table_touched[t];
    }
    Timeline sharded;
    accountant_.ChargeShardedHotStep(
        w,
        *std::max_element(device_lookups_.begin(), device_lookups_.end()) *
            row_bytes_,
        3 * *std::max_element(device_touched_.begin(), device_touched_.end()) *
            row_bytes_,
        sharded);
    tl.AddShardingSavedSeconds(
        Bank(plain_seconds - sharded.PhaseSumSeconds()));
  }

  /// Prices a hot-slice sync of `shipped_bytes` against the sharded
  /// placement. Dirty syncs ship part of the slice; their shards scale by
  /// the shipped share (uniform dirtiness).
  void PriceSync(bool to_gpus, uint64_t shipped_bytes, Timeline& tl) {
    if (!sharded_) return;
    const double frac = hot_bytes_ > 0
                            ? static_cast<double>(shipped_bytes) /
                                  static_cast<double>(hot_bytes_)
                            : 0.0;
    Timeline plain;
    if (to_gpus) {
      accountant_.ChargeSyncToGpus(shipped_bytes, plain);
    } else {
      accountant_.ChargeSyncToCpu(shipped_bytes, plain);
    }
    Timeline sharded;
    accountant_.ChargeShardedSync(
        static_cast<uint64_t>(static_cast<double>(shard_bytes_total_) * frac),
        static_cast<uint64_t>(static_cast<double>(max_shard_bytes_) * frac),
        sharded);
    tl.AddShardingSavedSeconds(
        Bank(plain.PhaseSumSeconds() - sharded.PhaseSumSeconds()));
  }

  /// Boundary writebacks (hot-chunk entry flush, end-of-run drain): real
  /// DMA the plain run never pays, priced through the same sync path the
  /// trainer charges and debited from the cache's savings.
  void ChargeWriteback(uint64_t bytes, Timeline& tl) {
    if (bytes == 0) return;
    Timeline scratch;
    accountant_.ChargeSyncToCpu(bytes, scratch);
    tl.AddCacheSavedSeconds(-scratch.PhaseSumSeconds());
    Timeline::CacheCounters& cc = tl.cache_counters();
    cc.writeback_bytes += bytes;
    cc.effective_transfer_bytes += bytes;
  }

  /// End of a run (or a crash): drains the cache and records the
  /// tracker's guard state, which lives in the tracker until now.
  void Finish(TrainReport& report) {
    if (cache_on_) ChargeWriteback(cache_.FlushAllDirty(), report.timeline);
    if (!stale_on_) return;
    Timeline::StaleSkipCounters& sc = report.timeline.stale_skip_counters();
    sc.reactivated_rows += staleness_.total_reactivated_rows();
    sc.guard_tightens += staleness_.guard_tightens();
    sc.guard_widens += staleness_.guard_widens();
    report.stale_final_threshold = staleness_.threshold();
  }

  /// Positive savings credited since the current schedule chunk began.
  /// FAE's kOverlap pairing subtracts it from the chunk's unhidden span so
  /// the same seconds are never credited twice. A chunk is hot or cold and
  /// at most one cold overlay is on, so one sum serves every overlay.
  double chunk_saved = 0.0;

 private:
  double Bank(double saved) {
    if (saved > 0.0) chunk_saved += saved;
    return saved;
  }

  const StepAccountant& accountant_;
  const bool overlap_lanes_;
  const bool cache_on_;
  const bool stale_on_;
  const size_t lookahead_;
  LookaheadCache cache_;
  std::function<void(size_t)> cache_feed_;
  size_t next_feed_ = 0;
  size_t segment_end_ = 0;
  StalenessTracker staleness_;
  // Sharded placement (PlanSharding): each table's owning device, byte
  // totals for pricing syncs, and per-step device sums.
  bool sharded_ = false;
  std::vector<int> owner_;
  uint64_t row_bytes_ = 0;
  uint64_t hot_bytes_ = 0;
  uint64_t shard_bytes_total_ = 0;
  uint64_t max_shard_bytes_ = 0;
  std::vector<uint64_t> device_lookups_;
  std::vector<uint64_t> device_touched_;
};

}  // namespace

Status ValidateTrainOptions(TrainMode mode, const SystemSpec& system,
                            const TrainOptions& options) {
  const bool fae = mode == TrainMode::kFae;
  // The drivers with a pipelined hybrid CPU-GPU step; the comparators
  // model one node, fp32 tables and no overlays.
  const bool hybrid = fae || mode == TrainMode::kBaseline;
  const std::string name(TrainModeName(mode));
  if (!hybrid && system.num_nodes != 1) {
    return Status::InvalidArgument(
        StrFormat("the %s comparator models a single node (got %d nodes)",
                  name.c_str(), system.num_nodes));
  }
  if (options.cold_precision != ColdPrecision::kFp32 && !fae) {
    return Status::InvalidArgument(StrFormat(
        "--cold-precision applies to --mode=fae only: mode '%s' has no "
        "hot/cold partition, so there is no cold store to quantize",
        name.c_str()));
  }
  if (options.sharding != ShardingMode::kReplicate && !fae) {
    return Status::InvalidArgument(StrFormat(
        "--sharding applies to --mode=fae only: mode '%s' has no hot slice "
        "to shard",
        name.c_str()));
  }
  if (options.cache != CacheMode::kOff && !hybrid) {
    return Status::InvalidArgument(StrFormat(
        "--cache=oracle applies to --mode=baseline or --mode=fae only: mode "
        "'%s' has no pipelined hybrid step to accelerate",
        name.c_str()));
  }
  if (options.stale_skip != StaleSkipMode::kOff && !hybrid) {
    return Status::InvalidArgument(StrFormat(
        "--stale-skip applies to --mode=baseline or --mode=fae only: mode "
        "'%s' runs no fused CPU sparse step for the tracker to ride",
        name.c_str()));
  }
  if (options.stale_skip == StaleSkipMode::kCold && !fae) {
    return Status::InvalidArgument(StrFormat(
        "--stale-skip=cold applies to --mode=fae only: mode '%s' has no hot "
        "set to pin live (use --stale-skip=all)",
        name.c_str()));
  }
  if (options.cache != CacheMode::kOff) {
    if (options.pipeline == PipelineMode::kOff) {
      return Status::InvalidArgument(
          "--cache=oracle requires a pipelined run (--pipeline=prefetch or "
          "overlap): the oracle window is the modeled staging ring's view "
          "of upcoming batches");
    }
    if (options.cache_budget_rows < 1) {
      return Status::InvalidArgument(
          "--cache-budget-rows must be at least 1");
    }
    if (options.cache_lookahead < kMinRingDepth ||
        options.cache_lookahead > kMaxRingDepth) {
      return Status::InvalidArgument(StrFormat(
          "--cache-lookahead must be in [%zu, %zu]", kMinRingDepth,
          kMaxRingDepth));
    }
  }
  if (options.cold_precision != ColdPrecision::kFp32) {
    if (options.fp16_embeddings) {
      return Status::InvalidArgument(
          "--cold-precision and TrainOptions::fp16_embeddings are mutually "
          "exclusive: fp16 emulation rounds rows through the fp32 tables "
          "that the quantized cold store no longer holds");
    }
    if (options.cache != CacheMode::kOff) {
      return Status::InvalidArgument(
          "--cold-precision cannot be combined with --cache=oracle: the "
          "cache's budget and transfer accounting assume fp32 cold rows, "
          "so the two would double-count the reclaimed bytes");
    }
  }
  if (options.stale_skip != StaleSkipMode::kOff) {
    if (!options.run_math) {
      return Status::InvalidArgument(
          "--stale-skip requires real math: skip decisions read measured "
          "per-row update magnitudes, which cost-only runs never produce");
    }
    if (options.fp16_embeddings) {
      return Status::InvalidArgument(
          "--stale-skip and TrainOptions::fp16_embeddings are mutually "
          "exclusive: the tracker measures the fp32 update, not the change "
          "binary16 rounding leaves in the row");
    }
    if (options.cache != CacheMode::kOff) {
      return Status::InvalidArgument(
          "--stale-skip cannot be combined with --cache=oracle: both "
          "reprice the same cold-step charges against the plain step, so "
          "their savings would double-count");
    }
    if (options.stale_threshold < 0.0) {
      return Status::InvalidArgument("--stale-threshold must be >= 0");
    }
    if (options.stale_min_visits < 1) {
      return Status::InvalidArgument("--stale-min-visits must be at least 1");
    }
  }
  return Status::OK();
}

std::string_view TrainModeName(TrainMode mode) {
  switch (mode) {
    case TrainMode::kBaseline:
      return "baseline";
    case TrainMode::kFae:
      return "fae";
    case TrainMode::kNvOpt:
      return "nvopt";
    case TrainMode::kModelParallel:
      return "model-parallel";
    case TrainMode::kGpuCache:
      return "gpu-cache";
  }
  return "unknown";
}

Trainer::Trainer(RecModel* model, SystemSpec system, TrainOptions options)
    : model_(model),
      system_(std::move(system)),
      cost_(system_),
      accountant_(&cost_),
      options_(options),
      exec_(model, ExecOptions(options)) {
  FAE_CHECK_GE(options_.per_gpu_batch, 1u);
  FAE_CHECK_GE(options_.epochs, 1u);
}

uint64_t Trainer::OptionsFingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  h = FnvMix(h, options_.per_gpu_batch);
  h = FnvMix(h, GlobalBatchSize());  // covers the world size too
  h = FnvMix(h, options_.epochs);
  h = FnvMix(h, std::bit_cast<uint32_t>(options_.dense_lr));
  h = FnvMix(h, std::bit_cast<uint32_t>(options_.sparse_lr));
  h = FnvMix(h, options_.run_math ? 1 : 0);
  h = FnvMix(h, options_.eval_samples);
  h = FnvMix(h, options_.eval_batch);
  h = FnvMix(h, options_.evals_per_epoch);
  h = FnvMix(h, static_cast<uint64_t>(options_.sync_strategy));
  h = FnvMix(h, options_.fp16_embeddings ? 1 : 0);
  h = FnvMix(h, options_.seed);
  // num_threads is deliberately absent: the kernels are bit-identical at
  // any thread count, so a resume may change it freely. pipeline and
  // pipeline_depth are absent for the same reason — every pipeline mode
  // produces identical math, phase charges, and checkpoint bytes (the
  // overlap savings live outside Timeline::State), so a run may resume
  // under a different pipeline configuration. The cache knobs (cache,
  // cache_budget_rows, cache_lookahead) are absent on the same contract:
  // the oracle cache is a cost-model overlay whose savings and counters
  // also live outside Timeline::State, so a resume may turn it on, off,
  // or resize it freely. cold_precision is absent for a different reason:
  // the storage mode travels *inside* the model state (ModelIo v3 tags
  // every table), and the resume path reconciles it explicitly — same
  // precision resumes verbatim, fp32 widens exactly, anything else is
  // rejected — so the fingerprint would only forbid the legal directions.
  // sharding is absent on the cache contract: a sharded placement is a
  // pure cost-model overlay (math always reads the CPU master and the
  // savings live outside Timeline::State), so a resume may switch
  // --sharding freely. The stale-skip triple (stale_skip, stale_threshold,
  // stale_min_visits) is absent on the cold_precision contract: the
  // tracker's per-row state travels *inside* the checkpoint (v3's
  // staleness section) and the resume path reconciles it explicitly —
  // same-mode resume restores it verbatim (bit-exact), turning skipping
  // off ignores it, turning it on starts a fresh tracker — so the
  // fingerprint would only forbid the legal directions.
  return h;
}

StatusOr<bool> Trainer::DrainFaults(
    uint64_t iteration, TrainReport& report,
    const std::function<void(uint64_t)>& on_corrupt_sync) {
  FaultInjector* injector = options_.fault_injector;
  if (injector == nullptr || injector->empty()) return false;
  FaultStats& stats = injector->stats();
  for (const FaultEvent& event : injector->Drain(iteration)) {
    switch (event.kind) {
      case FaultKind::kDeviceTransient: {
        ++stats.device_faults;
        if (event.times > kMaxFaultRetries) {
          return Status::ResourceExhausted(StrFormat(
              "device failed %u consecutive attempts at step %llu, "
              "exhausting the retry budget (%u); treating the device as "
              "permanently lost",
              event.times, static_cast<unsigned long long>(event.step),
              kMaxFaultRetries));
        }
        double backoff = kRetryBackoffSeconds;
        for (uint32_t attempt = 0; attempt < event.times; ++attempt) {
          ++stats.retries;
          report.timeline.Charge(Phase::kFaultRecovery, backoff);
          backoff *= 2.0;
        }
        FAE_LOG(Warning) << "transient device fault at step " << iteration
                         << ": recovered after " << event.times
                         << " retry attempt(s)";
        break;
      }
      case FaultKind::kLinkStall:
        ++stats.link_stalls;
        report.timeline.Charge(Phase::kFaultRecovery, event.stall_seconds);
        FAE_LOG(Warning) << "link stall at step " << iteration << " ("
                         << event.stall_seconds << " s)";
        break;
      case FaultKind::kCorruptSync:
        ++stats.corrupt_syncs;
        if (on_corrupt_sync) {
          on_corrupt_sync(iteration);
        } else {
          FAE_LOG(Warning)
              << "corrupt-sync fault at step " << iteration
              << " ignored: this mode keeps no GPU embedding replicas";
        }
        break;
      case FaultKind::kCrash:
        ++stats.crashes;
        report.interrupted = true;
        FAE_LOG(Warning)
            << "injected crash at step " << iteration
            << ": returning a partial report (resume from the last "
               "checkpoint to continue)";
        return true;
      case FaultKind::kRecalStall:
      case FaultKind::kSwapCrash:
      case FaultKind::kLookupLoss:
        // Serving-side faults (ServingLoop); batch training has no
        // recalibration or lookup path for them to hit.
        FAE_LOG(Warning) << FaultKindName(event.kind) << " fault at step "
                         << iteration
                         << " ignored: batch training has no serving path";
        break;
    }
  }
  return false;
}

void Trainer::FinishReport(TrainReport& report,
                           const std::vector<BatchView>& eval_batches,
                           RunningMetric& metric) const {
  if (options_.fault_injector != nullptr) {
    report.faults = options_.fault_injector->stats();
  }
  // The pipelined wall: phase totals minus what overlap hid (equal to the
  // plain total when nothing overlapped).
  report.modeled_seconds = report.timeline.OverlappedTotalSeconds();
  report.prep_seconds = report.timeline.seconds(Phase::kInputPrep);
  report.overlap_saved_seconds = report.timeline.overlap_saved_seconds();
  report.overlap_fraction = report.timeline.OverlapFraction();
  report.cache_saved_seconds = report.timeline.cache_saved_seconds();
  report.sharding_saved_seconds = report.timeline.sharding_saved_seconds();
  const Timeline::CacheCounters& cc = report.timeline.cache_counters();
  report.cache_hits = cc.hits;
  report.cache_misses = cc.misses;
  report.cache_hit_rate =
      cc.hits + cc.misses > 0
          ? static_cast<double>(cc.hits) /
                static_cast<double>(cc.hits + cc.misses)
          : 0.0;
  report.cache_stale_refreshes = cc.stale_refreshes;
  report.cache_prefetch_bytes = cc.prefetch_bytes;
  report.cache_writeback_bytes = cc.writeback_bytes;
  report.cache_plain_transfer_bytes = cc.plain_transfer_bytes;
  report.cache_effective_transfer_bytes = cc.effective_transfer_bytes;
  // The guard counters reach the timeline in the drivers' finalize step
  // (the tracker lives there); stale_final_threshold is set there too.
  report.stale_skip_saved_seconds =
      report.timeline.stale_skip_saved_seconds();
  const Timeline::StaleSkipCounters& ssc =
      report.timeline.stale_skip_counters();
  report.stale_skipped_rows = ssc.skipped_rows;
  report.stale_updated_rows = ssc.updated_rows;
  report.stale_reactivated_rows = ssc.reactivated_rows;
  report.stale_guard_tightens = ssc.guard_tightens;
  report.stale_guard_widens = ssc.guard_widens;
  report.avg_gpu_watts = cost_.AverageGpuWatts(
      report.modeled_seconds, report.timeline.gpu_busy_seconds(),
      report.timeline.seconds(Phase::kCpuGpuTransfer) +
          report.timeline.seconds(Phase::kEmbeddingSync));
  if (options_.run_math) {
    report.final_train_loss = metric.mean_loss();
    report.final_train_acc = metric.accuracy();
    const EvalResult eval = Evaluate(*model_, eval_batches);
    report.final_test_loss = eval.loss;
    report.final_test_acc = eval.accuracy;
    report.final_test_auc = eval.auc;
  }
}

/// One run of the baseline or FAE driver: the state both carry and the
/// stages they share — resume, the checkpoint cadence, eval points, the
/// cold step and the finish. The drivers keep their data paths and
/// schedules.
class Trainer::Run {
 public:
  Run(Trainer& trainer, TrainMode mode, const Dataset& dataset,
      const Dataset::Split& split)
      : overlay(trainer.accountant_, trainer.options_, dataset.schema()),
        tracker(trainer.options_.pipeline, trainer.options_.pipeline_depth,
                &report.timeline),
        eval_set(trainer.options_.run_math
                     ? trainer.exec_.MakeEvalSet(dataset, split)
                     : EvalSet{}),
        master_tables(MasterTables(*trainer.model_)),
        trainer_(trainer),
        dataset_fp_(FaeFormat::Fingerprint(dataset)),
        options_fp_(trainer.OptionsFingerprint()),
        chain_(trainer.options_.checkpoint.path) {
    report.mode = mode;
    const CheckpointOptions& ckpt = trainer.options_.checkpoint;
    if (!ckpt.path.empty() && ckpt.every_steps > 0) {
      written_.Init(dataset.schema().table_rows);
    }
  }

  /// Under options.checkpoint.resume, loads the checkpoint into `ck`,
  /// restores the state both drivers share from it, and leaves the
  /// driver's own position to the caller; otherwise changes nothing. Arms
  /// the save cadence either way.
  Status Resume(TrainerCheckpoint& ck) {
    const CheckpointOptions& ckpt = trainer_.options_.checkpoint;
    if (ckpt.resume) {
      if (ckpt.path.empty()) {
        return Status::InvalidArgument(
            "resume requested but no checkpoint path was given");
      }
      const CheckpointIo::Expectation expect{
          static_cast<uint32_t>(report.mode), dataset_fp_, options_fp_};
      FAE_ASSIGN_OR_RETURN(
          CheckpointIo::Loaded loaded,
          CheckpointIo::Load(ckpt.path, *trainer_.model_, &expect));
      ck = std::move(loaded.state);
      report.resumed_deltas = loaded.deltas;
      report.resume_damage = loaded.damage;
      if (!loaded.damage.ok()) {
        FAE_LOG(Warning) << "resuming from the checkpoint chain's consistent "
                            "prefix: "
                         << loaded.damage.ToString();
      }
      metric.Restore(ck.metric);
      window.Restore(ck.window);
      report.timeline.set_state(ck.timeline);
      report.curve = ck.curve;
      // Stale-skip reconciliation (the knob is fingerprint-exempt):
      // resuming with skipping on restores the tracker verbatim when the
      // checkpoint carries one (bit-exact continuation) and starts fresh
      // otherwise; resuming with it off ignores any stored section.
      if (overlay.staleness() != nullptr && ck.has_staleness) {
        overlay.staleness()->Restore(ck.staleness);
      }
      iteration = ck.iteration;
      report.num_batches = ck.iteration;
      report.resumed = true;
      report.resumed_at = ck.iteration;
      if (trainer_.options_.fault_injector != nullptr) {
        trainer_.options_.fault_injector->SkipUntil(ck.iteration);
      }
      FAE_LOG(Info) << "resumed " << TrainModeName(report.mode)
                    << " training from " << ckpt.path << " (base + "
                    << loaded.deltas << " deltas) at iteration "
                    << ck.iteration;
    }
    if (!ckpt.path.empty() && ckpt.every_steps > 0) {
      next_save_ = (iteration / ckpt.every_steps + 1) * ckpt.every_steps;
    }
    return Status::OK();
  }

  bool SaveDue() const { return next_save_ != 0 && iteration >= next_save_; }

  /// Saves `ck`, which carries the driver's own position, with the shared
  /// state, and re-arms the cadence.
  Status Save(TrainerCheckpoint ck) {
    const CheckpointOptions& ckpt = trainer_.options_.checkpoint;
    ck.mode = static_cast<uint32_t>(report.mode);
    ck.dataset_fingerprint = dataset_fp_;
    ck.options_fingerprint = options_fp_;
    ck.iteration = iteration;
    ck.metric = metric.state();
    ck.window = window.state();
    ck.timeline = report.timeline.state();
    ck.curve = report.curve;
    if (overlay.staleness() != nullptr) {
      ck.has_staleness = true;
      ck.staleness = overlay.staleness()->state();
    }
    Stopwatch watch;
    FAE_ASSIGN_OR_RETURN(
        const CheckpointChain::Saved saved,
        chain_.Save(ck, *trainer_.model_, written_.touched()));
    report.checkpoint_seconds += watch.ElapsedSeconds();
    report.checkpoint_bytes += saved.bytes;
    if (saved.kind == CheckpointChain::Kind::kBase) {
      ++report.checkpoint_base_saves;
    } else {
      ++report.checkpoint_delta_saves;
    }
    written_.Clear();
    next_save_ = (iteration / ckpt.every_steps + 1) * ckpt.every_steps;
    return Status::OK();
  }

  /// Records the master rows a step on `view` (in master ids) writes: a
  /// cold step's updates, and a hot step's, which reach the masters with
  /// the push sync that ends its chunk, before any save.
  void MarkWritten(const BatchView& view) {
    // Cost-only runs write no rows, so their deltas carry none.
    if (written_.num_tables() == 0 || !trainer_.options_.run_math) return;
    for (size_t t = 0; t < written_.num_tables(); ++t) {
      written_.MarkAll(t, view.indices(t));
    }
  }

  /// Appends one learning-curve point and returns its test loss.
  double EvalPoint() {
    CurvePoint point = window.Flush(iteration);
    const EvalResult eval = Evaluate(*trainer_.model_, eval_set.views);
    point.test_loss = eval.loss;
    point.test_acc = eval.accuracy;
    report.curve.push_back(point);
    if (overlay.staleness() != nullptr) {
      overlay.staleness()->OnTestLoss(eval.loss);
    }
    return eval.loss;
  }

  /// One hybrid CPU-GPU step on `view`, priced as `work`. The charges are
  /// identical in every pipeline mode — staging cost plus the hybrid step;
  /// pipelined modes then credit back what overlap hid, and the overlays
  /// what they remove.
  void ColdStep(const BatchView& view, const BatchWork& work) {
    const StepAccountant& accountant = trainer_.accountant_;
    const double prep =
        accountant.ChargeInputPrep(BatchInputBytes(view), report.timeline);
    const StepAccountant::BaselineParts parts =
        accountant.ChargeBaselineStepParts(work, report.timeline);
    tracker.OnStep(prep, parts.Total(), parts.Overlapped());
    if (trainer_.options_.run_math) {
      trainer_.exec_.MathStep(view, master_tables, metric, window,
                              overlay.staleness());
    }
    MarkWritten(view);
    overlay.PriceColdStep(work, parts, report.timeline);
  }

  void EndStep() {
    ++iteration;
    ++report.num_batches;
  }

  TrainReport Finish() {
    overlay.Finish(report);
    trainer_.FinishReport(report, eval_set.views, metric);
    return std::move(report);
  }

  TrainReport report;
  RunningMetric metric;
  RunningMetric window;
  size_t iteration = 0;
  StepOverlay overlay;
  OverlapTracker tracker;
  const EvalSet eval_set;
  const std::vector<EmbeddingTable*> master_tables;

 private:
  Trainer& trainer_;
  const uint64_t dataset_fp_;
  const uint64_t options_fp_;
  uint64_t next_save_ = 0;
  CheckpointChain chain_;
  DirtyRows written_;  // master rows written since the last save
};

struct Trainer::ShuffledBatches {
  explicit ShuffledBatches(uint64_t seed) : rng(seed) {}

  Xoshiro256 rng;
  FlatDataset flat;                 // the shuffled train ids, gathered once
  std::vector<TrainBatch> batches;  // views into `flat`
  std::vector<size_t> order;        // this epoch's batch order

  void Reshuffle() {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
  }
};

Trainer::ShuffledBatches Trainer::ShuffleBatches(
    const Dataset& dataset, const Dataset::Split& split) const {
  ShuffledBatches data(options_.seed);
  std::vector<uint64_t> ids = split.train;
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[data.rng.NextBounded(i)]);
  }
  data.flat = dataset.flat().Gather(ids);
  data.batches =
      exec_.MakeTrainBatches(data.flat, GlobalBatchSize(), /*hot=*/false);
  data.order.resize(data.batches.size());
  std::iota(data.order.begin(), data.order.end(), 0);
  return data;
}

TrainReport Trainer::RunComparator(
    TrainMode mode, const Dataset& dataset, const Dataset::Split& split,
    ShuffledBatches& data,
    const std::function<void(size_t, Timeline&)>& charge) {
  TrainReport report;
  report.mode = mode;
  const EvalSet eval_set =
      options_.run_math ? exec_.MakeEvalSet(dataset, split) : EvalSet{};
  const std::vector<EmbeddingTable*> tables = MasterTables(*model_);
  RunningMetric metric;
  RunningMetric window;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    // Same per-epoch reshuffle as the baseline, so identical seeds give
    // identical batch orders (and identical math) across placements.
    data.Reshuffle();
    for (size_t k : data.order) {
      charge(k, report.timeline);
      if (options_.run_math) {
        exec_.MathStep(data.batches[k].view, tables, metric, window);
      }
      ++report.num_batches;
    }
  }
  FinishReport(report, eval_set.views, metric);
  return report;
}

StatusOr<TrainReport> Trainer::TrainBaseline(const Dataset& dataset,
                                             const Dataset::Split& split) {
  FAE_RETURN_IF_ERROR(
      ValidateTrainOptions(TrainMode::kBaseline, system_, options_));
  exec_.MaybeQuantizeTables();
  Run run(*this, TrainMode::kBaseline, dataset, split);

  // One gather into epoch order; batches are views into the gathered
  // buffers (consecutive sample ranges), with cost-model work units
  // computed once. Per-epoch reshuffles permute the batch order — the
  // underlying data is never copied again. Every pipeline mode trains on
  // these views: --pipeline only changes what the cost model hides.
  ShuffledBatches data = ShuffleBatches(dataset, split);
  const size_t num_batches = data.order.size();
  const size_t eval_every =
      std::max<size_t>(1, num_batches / std::max<size_t>(
                                            1, options_.evals_per_epoch));

  TrainerCheckpoint ck;
  FAE_RETURN_IF_ERROR(run.Resume(ck));
  size_t start_epoch = 0;
  size_t start_batch = 0;
  if (run.report.resumed) {
    // Replay the shuffles consumed up to the save point — the initial id
    // shuffle above plus one batch reshuffle per started epoch — so the
    // resumed batch order matches the uninterrupted run's.
    for (uint64_t e = 0; e <= ck.epoch; ++e) data.Reshuffle();
    if (!(data.rng.state() == ck.rng)) {
      return Status::FailedPrecondition(
          "checkpoint RNG stream does not match the replayed shuffles "
          "(was the checkpoint taken on a different dataset or split?)");
    }
    start_epoch = ck.epoch;
    start_batch = ck.batch_in_epoch;
  }

  // The cache's oracle window reads the epoch's upcoming batches.
  run.overlay.set_cache_feed([&](size_t b) {
    run.overlay.cache().PushBatch(data.batches[data.order[b]].view);
  });

  for (size_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    // Reshuffle batch order each epoch (already replayed for the epoch a
    // resume landed in).
    if (!(run.report.resumed && epoch == start_epoch)) data.Reshuffle();
    const size_t first = epoch == start_epoch ? start_batch : 0;
    // An epoch is one modeled prefetch segment: the boundary is a sync
    // point nothing is staged across.
    run.tracker.BeginSegment();
    run.overlay.BeginCacheSegment(first, num_batches);
    for (size_t b = first; b < num_batches; ++b) {
      FAE_ASSIGN_OR_RETURN(const bool crashed,
                           DrainFaults(run.iteration, run.report, nullptr));
      if (crashed) return run.Finish();
      const TrainBatch& batch = data.batches[data.order[b]];
      run.ColdStep(batch.view, batch.work);
      run.EndStep();
      if (options_.run_math && run.iteration % eval_every == 0) {
        run.EvalPoint();
      }
      if (run.SaveDue()) {
        TrainerCheckpoint save;
        save.epoch = epoch;
        save.batch_in_epoch = b + 1;
        save.rng = data.rng.state();
        FAE_RETURN_IF_ERROR(run.Save(std::move(save)));
      }
    }
  }
  return run.Finish();
}

StatusOr<TrainReport> Trainer::TrainFae(const Dataset& dataset,
                                        const Dataset::Split& split,
                                        const FaeConfig& config) {
  Stopwatch prep_watch;
  FaePipeline pipeline(config);
  FAE_ASSIGN_OR_RETURN(FaePlan plan, pipeline.Prepare(dataset, split.train));
  FAE_ASSIGN_OR_RETURN(TrainReport report,
                       TrainFaeWithPlan(dataset, split, config, plan));
  report.preprocess_seconds = prep_watch.ElapsedSeconds();
  return report;
}

StatusOr<TrainReport> Trainer::TrainFaeWithPlan(const Dataset& dataset,
                                                const Dataset::Split& split,
                                                const FaeConfig& config,
                                                const FaePlan& plan) {
  FAE_RETURN_IF_ERROR(ValidateTrainOptions(TrainMode::kFae, system_, options_));
  if (config.cold_precision != options_.cold_precision) {
    return Status::InvalidArgument(
        "FaeConfig::cold_precision and TrainOptions::cold_precision "
        "disagree: the calibrator's budget credit must match the storage "
        "mode the trainer realizes");
  }
  exec_.MaybeQuantizeTables();
  Run run(*this, TrainMode::kFae, dataset, split);
  TrainReport& report = run.report;
  Timeline& tl = report.timeline;

  // Bytes a quantized cold store gives back under `pl` — credited to the
  // hot budget below with the same ColdRowBytes arithmetic the calibrator
  // used, or degradation would undo the calibrator's budget feedback.
  const DatasetSchema& schema = dataset.schema();
  auto reclaimed_for = [&](const FaePlan& pl) -> uint64_t {
    if (options_.cold_precision == ColdPrecision::kFp32) return 0;
    const uint64_t saved_per_row =
        schema.embedding_dim * sizeof(float) -
        ColdRowBytes(schema.embedding_dim, options_.cold_precision);
    uint64_t cold = 0;
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      if (pl.hot_set.mask(t).empty()) continue;  // all-hot: nothing cold
      cold += schema.table_rows[t] - pl.hot_set.HotCount(t);
    }
    return cold * saved_per_row;
  };

  // Graceful degradation: when the hot slice no longer fits the per-GPU
  // budget (popularity drift after calibration, a smaller deployment GPU),
  // demote overflow entries and fall back toward the cold path instead of
  // aborting — unless the caller opted into hard failure. The budget is
  // the *effective* one: L plus what the quantized cold store reclaims
  // (demotions only grow the cold side, so the credit never shrinks under
  // degradation and the recheck below is conservative).
  FaePlan shrunk;
  const FaePlan* active = &plan;
  uint64_t effective_budget =
      system_.hot_embedding_budget + reclaimed_for(plan);
  if (plan.hot_bytes > effective_budget) {
    if (!options_.degrade_on_overflow) {
      return Status::ResourceExhausted(
          "plan's hot slice exceeds the per-GPU hot-embedding budget");
    }
    shrunk = DegradePlanToBudget(dataset, plan, effective_budget,
                                 config.num_threads);
    effective_budget = system_.hot_embedding_budget + reclaimed_for(shrunk);
    if (shrunk.hot_bytes > effective_budget) {
      return Status::ResourceExhausted(
          "hot slice still exceeds the per-GPU budget after demoting every "
          "demotable row");
    }
    active = &shrunk;
  }
  const FaePlan& p = *active;
  report.effective_hot_budget = effective_budget;
  report.cold_reclaimed_bytes = reclaimed_for(p);
  report.threshold = p.threshold;
  report.hot_bytes = p.hot_bytes;
  report.hot_fraction = p.inputs.HotFraction();
  report.degraded = p.degraded;
  report.demoted_rows = p.demoted_rows;
  report.fallback_inputs = p.fallback_inputs;

  // Each class is gathered once into a flat buffer (seeded per-class
  // shuffles); pure hot/cold batches are views into it.
  InputProcessor::PackedFlat packed =
      InputProcessor::PackFlat(dataset, p.inputs, options_.seed);
  std::vector<TrainBatch> hot_batches =
      exec_.MakeTrainBatches(packed.hot, GlobalBatchSize(), /*hot=*/true);
  std::vector<TrainBatch> cold_batches =
      exec_.MakeTrainBatches(packed.cold, GlobalBatchSize(), /*hot=*/false);
  report.hot_batches = hot_batches.size();
  report.cold_batches = cold_batches.size();

  // Sharded hot-slice placement, planned against the *post-degrade* hot
  // set. Pure cost model: the replicas keep holding the full slice and
  // math never changes.
  if (options_.sharding != ShardingMode::kReplicate) {
    FAE_RETURN_IF_ERROR(run.overlay.PlanSharding(
        p, schema, std::max(1, system_.WorldSize()), report));
  }

  // Stale-update skipping rides the CPU master path only (cold batches);
  // the GPU replicas' hot steps never consult the tracker. kCold pins the
  // hot set live — cold batches touch hot rows on the master, and those
  // must keep updating or the next pull sync would ship frozen rows as if
  // they were fresh. The always-update set comes from the *post-degrade*
  // hot set, matching what the replicas actually hold.
  if (options_.stale_skip == StaleSkipMode::kCold) {
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      run.overlay.staleness()->SetAlwaysUpdate(t, p.hot_set.HotRows(t));
    }
  }

  // The replica stands for every GPU's copy (they stay bit-identical under
  // synchronous data parallelism).
  EmbeddingReplicator replicator(model_->tables(), p.hot_set);
  std::vector<EmbeddingTable*> replica_tables = replicator.replica_tables();

  // Pre-translate the hot class into replica coordinates (one translated
  // clone of the gathered buffer; the paper stores preprocessed data in
  // the FAE format for reuse). Hot training batches view this clone.
  FlatDataset hot_translated;
  std::vector<BatchView> hot_translated_views;
  if (options_.run_math) {
    FAE_ASSIGN_OR_RETURN(hot_translated, replicator.TranslateFlat(packed.hot));
    hot_translated_views =
        MakeBatchViews(hot_translated, GlobalBatchSize(), /*hot=*/true);
  }

  // Cold-chunk CPU seconds awaiting a hot chunk to hide under (kOverlap).
  double pending_cold_unhidden = 0.0;

  ShuffleScheduler scheduler(cold_batches.size(), hot_batches.size(), config);

  // Dirty-row tracking for SyncStrategy::kDirty: a reusable bitmap plus
  // touched list per table (see DirtyRows) holding *master* row ids;
  // tracking is index-based so it works in cost-only mode too.
  const bool dirty_sync = options_.sync_strategy == SyncStrategy::kDirty;
  const size_t num_tables = schema.num_tables();
  const uint64_t row_bytes =
      schema.embedding_dim * sizeof(float) + sizeof(uint32_t);
  DirtyRows master_dirty;
  DirtyRows replica_dirty;
  if (dirty_sync) {
    master_dirty.Init(schema.table_rows);
    replica_dirty.Init(schema.table_rows);
  }
  bool replica_initialized = false;

  // The oracle cache accelerates FAE's cold chunks (hot chunks already run
  // entirely on the GPUs). It may cache hot rows too — cold batches touch
  // them — so the chunk boundaries keep it coherent: dirty cached hot rows
  // flush to the master before a hot chunk's pull sync, and a hot chunk's
  // push sync marks cached copies stale on the way out.
  const bool cache_on = run.overlay.cache_on();
  run.overlay.set_cache_feed([&](size_t i) {
    run.overlay.cache().PushBatch(cold_batches[i].view);
  });

  // FAE checkpoints are taken at schedule-chunk boundaries, where the CPU
  // master copy (restored by the resume) is authoritative; the replicas
  // are rebuilt by a full pull on the next hot chunk, which is numerically
  // identical to the uninterrupted run (the modeled sync traffic may
  // differ by at most one full-slice sync under kDirty).
  TrainerCheckpoint ck;
  FAE_RETURN_IF_ERROR(run.Resume(ck));
  size_t start_epoch = 0;
  if (report.resumed) {
    scheduler.Restore(ck.scheduler);
    report.sync_bytes = ck.sync_bytes;
    start_epoch = ck.epoch;
  }

  // Cold-store reconciliation, after any resume restored the masters:
  //  - fresh quantized run: compress each partitioned table's cold rows;
  //  - resume at the same precision: keep the restored store *verbatim*
  //    (requantizing would re-round; see model_io.h) after checking the
  //    hot/cold partition still matches the plan;
  //  - resume at fp32 from a quantized checkpoint: widen exactly;
  //  - any other precision change: reject.
  // Cost-only runs skip compression (the masters hold no numerics); the
  // byte accounting below does not depend on it.
  const ColdPrecision target = options_.cold_precision;
  {
    std::vector<EmbeddingTable>& ts = model_->tables();
    for (size_t t = 0; t < ts.size(); ++t) {
      EmbeddingTable& tab = ts[t];
      const std::span<const uint8_t> mask = p.hot_set.mask(t);
      if (tab.compressed()) {
        if (tab.cold_precision() == target) {
          if (mask.empty() || !tab.PartitionMatches(mask)) {
            return Status::FailedPrecondition(StrFormat(
                "checkpoint table %zu's hot/cold partition does not match "
                "the current plan (popularity drift since the checkpoint?); "
                "resume with --cold-precision=fp32 to widen and repartition",
                t));
          }
        } else if (target == ColdPrecision::kFp32) {
          tab.Decompress();
        } else {
          return Status::FailedPrecondition(StrFormat(
              "checkpoint stores table %zu's cold rows as %s but the run "
              "requests %s; resume at the same cold precision or at fp32",
              t, std::string(ColdPrecisionName(tab.cold_precision())).c_str(),
              std::string(ColdPrecisionName(target)).c_str()));
        }
      } else if (target != ColdPrecision::kFp32 && options_.run_math &&
                 !mask.empty()) {
        tab.CompressCold(mask, target);
      }
      report.cold_rows += tab.cold_rows();
      report.cold_store_bytes += tab.ColdStoreBytes();
    }
  }

  // Cold batches stream cold rows out of the quantized store, so their
  // modeled read traffic shrinks to the quantized row width (hot rows a
  // cold batch touches stay fp32, and updates write fp32 staging rows, so
  // only the read side scales). One hot-mask pass per batch, computed once
  // — chunks index cold_batches stably.
  std::vector<BatchWork> cold_work_narrow;
  const bool quantized_cost = target != ColdPrecision::kFp32;
  if (quantized_cost) {
    const uint64_t fp32_row = schema.embedding_dim * sizeof(float);
    const uint64_t cold_row = ColdRowBytes(schema.embedding_dim, target);
    cold_work_narrow.reserve(cold_batches.size());
    for (const TrainBatch& batch : cold_batches) {
      uint64_t hot_lookups = 0;
      uint64_t cold_lookups = 0;
      for (size_t t = 0; t < num_tables; ++t) {
        for (uint32_t row : batch.view.indices(t)) {
          if (p.hot_set.IsHot(t, row)) {
            ++hot_lookups;
          } else {
            ++cold_lookups;
          }
        }
      }
      BatchWork w = batch.work;
      w.embedding_read_bytes =
          hot_lookups * fp32_row + cold_lookups * cold_row;
      cold_work_narrow.push_back(w);
    }
  }
  auto cold_work = [&](size_t i) -> const BatchWork& {
    return quantized_cost ? cold_work_narrow[i] : cold_batches[i].work;
  };

  // Recovery from a corrupted hot-slice sync: every replica is garbage, so
  // discard them all and re-pull from the CPU master copy, which is always
  // authoritative. GPU updates not yet pushed when the fault hit are lost
  // (honest degradation — training continues from the master's state).
  auto recover_corrupt_sync = [&](uint64_t at) {
    FAE_LOG(Warning) << "corrupted hot-slice sync at step " << at
                     << ": discarding GPU replicas and re-pulling "
                     << HumanBytes(p.hot_bytes) << " from the CPU master";
    if (options_.run_math) {
      replicator.ScrambleReplicas(options_.seed ^ at);
      replicator.PullFromMasters(model_->tables());
    }
    Timeline scratch;
    accountant_.ChargeSyncToGpus(p.hot_bytes, scratch);
    const double seconds = scratch.PhaseSumSeconds();
    tl.Charge(Phase::kFaultRecovery, seconds);
    tl.AddPcieBytes(p.hot_bytes);
    report.sync_bytes += p.hot_bytes;
    // Replicas now mirror the masters exactly.
    master_dirty.Clear();
    replica_dirty.Clear();
    replica_initialized = true;
  };

  // One hot-slice sync, replicas <- masters (`to_gpus`) or back. It ships
  // the whole slice unless kDirty tracked fewer rows in `dirty` (and the
  // replicas already hold the slice: the very first pull replicates it
  // whole regardless). Nearly everything dirty (hot rows are frequently
  // touched by construction) ships wholesale too, avoiding the per-row
  // index overhead.
  auto sync = [&](bool to_gpus, DirtyRows& dirty) {
    const uint64_t dirty_bytes = dirty_sync && replica_initialized
                                     ? dirty.TotalTouched() * row_bytes
                                     : p.hot_bytes;
    const bool whole = dirty_bytes >= p.hot_bytes;
    const uint64_t bytes = whole ? p.hot_bytes : dirty_bytes;
    if (to_gpus) {
      accountant_.ChargeSyncToGpus(bytes, tl);
    } else {
      accountant_.ChargeSyncToCpu(bytes, tl);
    }
    run.overlay.PriceSync(to_gpus, bytes, tl);
    report.sync_bytes += bytes;
    if (options_.run_math) {
      std::vector<EmbeddingTable>& masters = model_->tables();
      if (to_gpus && whole) {
        replicator.PullFromMasters(masters);
      } else if (to_gpus) {
        replicator.PullRowsFromMasters(masters, dirty.touched());
      } else if (whole) {
        replicator.PushToMasters(masters);
      } else {
        replicator.PushRowsToMasters(masters, dirty.touched());
      }
    }
    if (dirty_sync) dirty.Clear();
  };

  auto finish = [&] {
    report.transitions = scheduler.transitions();
    report.final_rate = scheduler.rate();
    return run.Finish();
  };

  for (size_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    // A resume lands mid-epoch: the restored scheduler state already
    // encodes the position, so only later epochs reset it.
    if (!(report.resumed && epoch == start_epoch)) scheduler.ResetEpoch();
    while (auto chunk = scheduler.Next()) {
      const size_t end = chunk->begin + chunk->count;
      // A chunk is one modeled prefetch segment: the boundary is FAE's
      // sync point (the scheduler's rate feedback can change the upcoming
      // mix there), so nothing is staged across it.
      run.tracker.BeginSegment();
      run.overlay.chunk_saved = 0.0;
      // The chunk window spans everything charged for this chunk —
      // including the hot-slice syncs — so kOverlap can pair a cold
      // chunk's CPU time against the next hot chunk's GPU+DMA time.
      if (run.tracker.mode() == PipelineMode::kOverlap) {
        run.tracker.MarkChunkStart();
      }
      if (chunk->hot) {
        // Cold->hot boundary: dirty cached hot rows reach the master
        // *before* the replicas pull, so the pull sees every cold-chunk
        // update — the same coherence order the dirty-sync path enforces.
        if (cache_on) {
          run.overlay.ChargeWriteback(
              run.overlay.cache().FlushDirty(p.hot_set), tl);
        }
        // Hot phase: replicas pull the latest rows (cold batches may have
        // updated hot entries on the CPU master).
        sync(/*to_gpus=*/true, master_dirty);
        replica_initialized = true;
        for (size_t i = chunk->begin; i < end; ++i) {
          FAE_ASSIGN_OR_RETURN(
              const bool crashed,
              DrainFaults(run.iteration, report, recover_corrupt_sync));
          if (crashed) return finish();
          const double prep = accountant_.ChargeInputPrep(
              BatchInputBytes(hot_batches[i].view), tl);
          const double before = tl.PhaseSumSeconds();
          accountant_.ChargeHotStep(hot_batches[i].work, tl);
          const double step_seconds = tl.PhaseSumSeconds() - before;
          run.tracker.OnStep(prep, step_seconds, step_seconds);
          run.overlay.PriceHotStep(hot_batches[i].work, step_seconds, tl);
          if (options_.run_math) {
            exec_.MathStep(hot_translated_views[i], replica_tables,
                           run.metric, run.window);
          }
          run.MarkWritten(hot_batches[i].view);
          if (dirty_sync) {
            // Untranslated indices — dirty tracking speaks master ids.
            for (size_t t = 0; t < num_tables; ++t) {
              replica_dirty.MarkAll(t, hot_batches[i].view.indices(t));
            }
          }
          run.EndStep();
        }
        // Leaving the hot phase: masters absorb the GPU updates.
        sync(/*to_gpus=*/false, replica_dirty);
        // Hot->cold boundary: the push-to-masters just made every cached
        // copy of a hot row stale; the next cold reference refetches it.
        if (cache_on) run.overlay.cache().InvalidateHot(p.hot_set);
      } else {
        run.overlay.BeginCacheSegment(chunk->begin, end);
        for (size_t i = chunk->begin; i < end; ++i) {
          FAE_ASSIGN_OR_RETURN(
              const bool crashed,
              DrainFaults(run.iteration, report, recover_corrupt_sync));
          if (crashed) return finish();
          run.ColdStep(cold_batches[i].view, cold_work(i));
          if (dirty_sync) {
            // Cold inputs may update hot rows on the master; those rows
            // must reach the replicas before the next hot phase.
            for (size_t t = 0; t < num_tables; ++t) {
              for (uint32_t row : cold_batches[i].view.indices(t)) {
                if (p.hot_set.IsHot(t, row)) master_dirty.Mark(t, row);
              }
            }
          }
          run.EndStep();
        }
        // End of the cold chunk: requantize every staged cold row back
        // into the store. Flushing *here* — before the boundary eval and
        // any checkpoint — keeps the schedule deterministic (an eval or a
        // resume always sees requantized cold rows, never a mix that
        // depends on the checkpoint cadence) and restores the alloc-free
        // steady state (the staging buffer keeps its capacity).
        if (options_.run_math && quantized_cost) {
          for (EmbeddingTable* t : run.master_tables) {
            if (t->compressed()) t->FlushStaged();
          }
        }
      }
      if (run.tracker.mode() == PipelineMode::kOverlap) {
        // Pair the interleaved phases: a cold chunk banks its unhidden
        // CPU seconds, and the next hot chunk hides them under its own
        // unhidden GPU+DMA span (capped by the shorter of the two) — the
        // overlapped hot/cold schedule the pipelined trainer models.
        // Seconds an overlay already removed from a chunk no longer exist
        // to hide or to hide under — counting them would credit the same
        // time twice.
        const double unhidden =
            run.tracker.ChunkUnhiddenSeconds() - run.overlay.chunk_saved;
        if (chunk->hot) {
          const double hid =
              std::min(pending_cold_unhidden, std::max(0.0, unhidden));
          if (hid > 0.0) tl.AddOverlapSavedSeconds(hid);
          pending_cold_unhidden = 0.0;
        } else {
          pending_cold_unhidden = std::max(0.0, unhidden);
        }
      }
      if (options_.run_math) scheduler.ReportTestLoss(run.EvalPoint());
      // Chunk boundaries are the FAE save points: the masters have just
      // absorbed every GPU update, so the checkpoint needs no replica
      // state — a resume re-pulls the slice from the masters.
      if (run.SaveDue()) {
        TrainerCheckpoint save;
        save.epoch = epoch;
        save.sync_bytes = report.sync_bytes;
        save.scheduler = scheduler.state();
        FAE_RETURN_IF_ERROR(run.Save(std::move(save)));
      }
    }
  }
  return finish();
}

StatusOr<TrainReport> Trainer::TrainNvOpt(const Dataset& dataset,
                                          const Dataset::Split& split) {
  FAE_RETURN_IF_ERROR(
      ValidateTrainOptions(TrainMode::kNvOpt, system_, options_));
  exec_.MaybeQuantizeTables();

  // Greedy fp16 placement, largest tables first, into 80% of GPU memory —
  // access-oblivious, per the paper's characterization of NvOPT.
  const DatasetSchema& schema = dataset.schema();
  std::vector<size_t> order(schema.num_tables());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return schema.TableBytes(a) > schema.TableBytes(b);
  });
  std::vector<bool> on_gpu(schema.num_tables(), false);
  uint64_t budget = static_cast<uint64_t>(0.8 * system_.gpu.mem_capacity);
  for (size_t t : order) {
    const uint64_t fp16_bytes = schema.TableBytes(t) / 2;
    if (fp16_bytes <= budget) {
      on_gpu[t] = true;
      budget -= fp16_bytes;
    }
  }

  ShuffledBatches data = ShuffleBatches(dataset, split);
  return RunComparator(
      TrainMode::kNvOpt, dataset, split, data, [&](size_t k, Timeline& tl) {
        const TrainBatch& batch = data.batches[k];
        accountant_.ChargeNvOptStep(batch.work, on_gpu, schema.embedding_dim,
                                    batch.view.batch_size(), tl);
      });
}

StatusOr<TrainReport> Trainer::TrainModelParallel(
    const Dataset& dataset, const Dataset::Split& split) {
  FAE_RETURN_IF_ERROR(
      ValidateTrainOptions(TrainMode::kModelParallel, system_, options_));
  const DatasetSchema& schema = dataset.schema();
  const int g = std::max(1, system_.num_gpus);
  // Shard tables with the LPT heuristic; the *largest realized shard*
  // (not the balanced ideal) must fit, with 20% headroom for activations
  // and the dense model. A single table larger than a GPU can make this
  // impossible regardless of g — the paper's capacity argument.
  std::vector<uint64_t> table_bytes(schema.num_tables());
  for (size_t t = 0; t < schema.num_tables(); ++t) {
    table_bytes[t] = schema.TableBytes(t);
  }
  const Partition partition = PartitionLpt(table_bytes, g);
  if (partition.MaxWeight() >
      static_cast<uint64_t>(0.8 * system_.gpu.mem_capacity)) {
    return Status::ResourceExhausted(StrFormat(
        "model-parallel shard (%s on the fullest GPU) exceeds GPU memory "
        "(%s)",
        HumanBytes(partition.MaxWeight()).c_str(),
        HumanBytes(system_.gpu.mem_capacity).c_str()));
  }

  // The step is the sharded one with balanced owners: each GPU gathers
  // 1/g of the lookups and streams 1/g of the optimizer bytes.
  ShuffledBatches data = ShuffleBatches(dataset, split);
  return RunComparator(
      TrainMode::kModelParallel, dataset, split, data,
      [&](size_t k, Timeline& tl) {
        const BatchWork& w = data.batches[k].work;
        accountant_.ChargeShardedHotStep(w, w.embedding_read_bytes / g,
                                         3 * w.touched_bytes / g, tl);
      });
}

StatusOr<TrainReport> Trainer::TrainGpuCache(const Dataset& dataset,
                                             const Dataset::Split& split,
                                             const FaePlan& plan) {
  FAE_RETURN_IF_ERROR(
      ValidateTrainOptions(TrainMode::kGpuCache, system_, options_));
  const DatasetSchema& schema = dataset.schema();
  const uint64_t row_bytes = schema.embedding_dim * sizeof(float);
  ShuffledBatches data = ShuffleBatches(dataset, split);

  // Partition each batch's lookups into cache hits and misses once — the
  // split depends only on the batch and the (fixed) cache contents.
  struct CacheCost {
    uint64_t hit_lookups = 0;
    uint64_t miss_lookups = 0;
    uint64_t miss_touched = 0;
  };
  std::vector<CacheCost> cache_costs(data.batches.size());
  std::vector<uint32_t> miss_scratch;
  for (size_t b = 0; b < data.batches.size(); ++b) {
    CacheCost& cc = cache_costs[b];
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      miss_scratch.clear();
      for (uint32_t row : data.batches[b].view.indices(t)) {
        if (plan.hot_set.IsHot(t, row)) {
          ++cc.hit_lookups;
        } else {
          ++cc.miss_lookups;
          miss_scratch.push_back(row);
        }
      }
      std::sort(miss_scratch.begin(), miss_scratch.end());
      cc.miss_touched += static_cast<uint64_t>(
          std::unique(miss_scratch.begin(), miss_scratch.end()) -
          miss_scratch.begin());
    }
  }

  TrainReport report = RunComparator(
      TrainMode::kGpuCache, dataset, split, data, [&](size_t k, Timeline& tl) {
        const CacheCost& cc = cache_costs[k];
        accountant_.ChargeCacheStep(
            data.batches[k].work, cc.hit_lookups * row_bytes,
            cc.miss_lookups * row_bytes, cc.miss_touched * row_bytes, tl);
      });
  report.hot_bytes = plan.hot_bytes;
  report.threshold = plan.threshold;
  return report;
}

}  // namespace fae
