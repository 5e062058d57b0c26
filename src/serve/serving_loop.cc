#include "serve/serving_loop.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <utility>
#include <vector>

#include "core/fae_format.h"
#include "data/batch_view.h"
#include "engine/lookahead_cache.h"
#include "serve/request_stream.h"
#include "util/logging.h"

namespace fae {
namespace {

/// Serving-side retry cap for transient lookup-device faults; a device
/// failing more consecutive attempts is treated as lost on the lookup path
/// (lookup-loss semantics: master fallback, never an outage) — unlike the
/// batch trainer, serving has no "fail the run" escalation.
constexpr uint32_t kMaxServeRetries = 5;
constexpr double kServeRetryBackoffSeconds = 0.001;

StepExecutor::Options ExecOptions(const ServeOptions& options) {
  StepExecutor::Options exec;
  exec.dense_lr = options.dense_lr;
  exec.sparse_lr = options.sparse_lr;
  exec.run_math = options.continuous_training;
  exec.num_threads = options.num_threads;
  return exec;
}

/// Tears the swap artifact the way a worker dying mid-write would: the
/// file exists but its tail (and with it the CRC trailer) is gone. Save's
/// temp+rename makes this impossible in the real flow; the injected fault
/// bypasses it deliberately so the test proves Load rejects torn bytes.
void TearSwapArtifact(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return;
  std::filesystem::resize_file(path, size / 2, ec);
}

}  // namespace

ServingLoop::ServingLoop(RecModel* model, SystemSpec system,
                         FaeConfig fae_config, ServeOptions options)
    : model_(model),
      system_(std::move(system)),
      cost_(system_),
      accountant_(&cost_),
      fae_config_(std::move(fae_config)),
      options_(std::move(options)),
      exec_(model, ExecOptions(options_)) {}

StatusOr<ServeReport> ServingLoop::Serve(const Dataset& dataset,
                                         const FaePlan& plan) {
  FAE_RETURN_IF_ERROR(options_.Validate());
  const bool quantized = options_.cold_precision != ColdPrecision::kFp32;

  const size_t dim = dataset.schema().embedding_dim;
  const uint64_t row_bytes = dim * sizeof(float);
  const FlatDataset& flat = dataset.flat();

  ServeReport report;
  Timeline& tl = report.timeline;

  FaultStats local_stats;
  FaultStats* stats = options_.fault_injector
                          ? &options_.fault_injector->stats()
                          : &local_stats;

  // The active hot set starts as the offline plan's and is replaced only by
  // a successful all-or-nothing swap.
  HotSet active = plan.hot_set;
  uint64_t active_hot_bytes = active.HotBytes(dim);
  accountant_.ChargeSyncToGpus(active_hot_bytes, tl);  // initial replication

  // Quantized cold store: compress the masters against the *offline*
  // plan's partition. This storage partition stays fixed for the whole
  // serving run — hot-swaps change which rows the GPU answers, not how the
  // master stores them (requantizing per swap would re-round the codes).
  // A model restored from a v3 container may arrive compressed already; it
  // must then match the requested precision and the plan's partition.
  if (quantized ||
      (!model_->tables().empty() && model_->tables().front().compressed())) {
    std::vector<EmbeddingTable>& ts = model_->tables();
    for (size_t t = 0; t < ts.size(); ++t) {
      EmbeddingTable& tab = ts[t];
      const std::span<const uint8_t> mask = plan.hot_set.mask(t);
      if (tab.compressed()) {
        if (!quantized) {
          tab.Decompress();
        } else if (tab.cold_precision() != options_.cold_precision ||
                   mask.empty() || !tab.PartitionMatches(mask)) {
          return Status::FailedPrecondition(
              "model's compressed cold store does not match the requested "
              "cold precision and the serving plan's hot/cold partition");
        }
      } else if (quantized && !mask.empty()) {
        tab.CompressCold(mask, options_.cold_precision);
      }
    }
  }

  RequestStream stream(&dataset, options_.batch_size);
  const size_t total_batches =
      options_.num_batches > 0
          ? options_.num_batches
          : (dataset.size() + options_.batch_size - 1) / options_.batch_size;

  // Per-lookup modeled costs are loop invariants of the cost model. A
  // storage-cold miss streams the quantized row out of the CPU master
  // (fewer bytes gathered); the dequantized fp32 row crosses PCIe either
  // way. Rows hot in the *storage* partition keep the fp32 gather even
  // when a lost lookup device sends them to the master.
  const double hit_seconds = cost_.GatherSeconds(row_bytes, system_.gpu);
  const double miss_gather = cost_.GatherSeconds(row_bytes, system_.cpu);
  const double miss_pcie = cost_.PcieTransferSeconds(row_bytes);
  const double miss_seconds = miss_gather + miss_pcie;
  const double miss_gather_q = cost_.GatherSeconds(
      ColdRowBytes(dim, options_.cold_precision), system_.cpu);
  const double miss_seconds_q = miss_gather_q + miss_pcie;

  // Lookahead oracle cache over the *cold* traffic, with the hot slice as
  // the pinned tier (engine/lookahead_cache.h). The request stream replays
  // deterministically, so peeking `cache_lookahead` batches ahead gives
  // the cache the same exact-future visibility the trainer's oracle window
  // has over its schedule. Unlike training there is no checkpoint-identity
  // constraint, so cache traffic is charged into the timeline directly.
  // Oracle-cache hits read a replica sharded across the GPUs; the
  // peer-link hop folds into kCacheIndirection (engine/step_accountant.h).
  const bool cache_on = options_.cache == CacheMode::kOracle;
  const double cache_hit_seconds = kCacheIndirection * hit_seconds;
  LookaheadCache cache;
  double cache_saved = 0.0;
  if (cache_on) {
    LookaheadCache::Options copt;
    copt.budget_rows = options_.cache_budget_rows;
    copt.lookahead = options_.cache_lookahead;
    copt.row_bytes = row_bytes;
    copt.track_dirty = false;  // read-only replica of the CPU master
    cache.Init(dataset.schema().table_rows, copt);
    cache.SetPinned(&active);
    cache.BeginSegment();
    for (size_t i = 0; i < std::min(total_batches, options_.cache_lookahead);
         ++i) {
      cache.PushBatch(flat, stream.Peek(i));
    }
  }
  // Prefetch/refresh DMA targets idle PCIe, never the request path: it is
  // wall time and bytes on the timeline, and a debit against the cache's
  // reported saving.
  auto charge_cache_dma = [&](uint64_t bytes) {
    if (bytes == 0) return;
    const double seconds = cost_.PcieTransferSeconds(bytes);
    tl.Charge(Phase::kCpuGpuTransfer, seconds);
    tl.AddPcieBytes(bytes);
    cache_saved -= seconds;
  };

  // Continuous-training machinery (training never pauses during
  // recalibration or degraded service).
  std::vector<EmbeddingTable*> master_tables;
  for (EmbeddingTable& t : model_->tables()) master_tables.push_back(&t);
  RunningMetric metric;
  RunningMetric window_metric;
  FlatDataset train_ws;

  // Drift/fault state.
  double ema = 1.0;  // optimistic: the offline plan starts fresh
  bool degraded = false;
  size_t cooldown = 0;            // batches until the next recal may fire
  double armed_recal_stall = 0.0; // consumed by the next recalibration
  bool has_armed_recal_stall = false;
  bool armed_swap_crash = false;  // consumed by the next hot-swap
  uint32_t lookup_loss_remaining = 0;

  for (size_t b = 0; b < total_batches; ++b) {
    // --- Faults scheduled before this batch -----------------------------
    if (options_.fault_injector != nullptr) {
      for (const FaultEvent& event : options_.fault_injector->Drain(b)) {
        switch (event.kind) {
          case FaultKind::kRecalStall:
            ++stats->recal_stalls;
            armed_recal_stall += event.stall_seconds;
            has_armed_recal_stall = true;
            break;
          case FaultKind::kSwapCrash:
            ++stats->swap_crashes;
            armed_swap_crash = true;
            break;
          case FaultKind::kLookupLoss:
            ++stats->lookup_losses;
            lookup_loss_remaining =
                std::max(lookup_loss_remaining, event.times);
            break;
          case FaultKind::kCrash:
            ++stats->crashes;
            report.interrupted = true;
            break;
          case FaultKind::kDeviceTransient: {
            // Bounded retry with backoff; a device out past the cap is a
            // lookup-path loss (master fallback), never an outage.
            ++stats->device_faults;
            const uint32_t attempts = std::min(event.times, kMaxServeRetries);
            stats->retries += attempts;
            tl.Charge(Phase::kFaultRecovery,
                      attempts * kServeRetryBackoffSeconds);
            if (event.times > kMaxServeRetries) {
              lookup_loss_remaining = std::max(
                  lookup_loss_remaining, event.times - kMaxServeRetries);
            }
            break;
          }
          case FaultKind::kLinkStall:
            ++stats->link_stalls;
            tl.Charge(Phase::kCpuGpuTransfer, event.stall_seconds);
            break;
          case FaultKind::kCorruptSync:
            // The replicated hot slice is garbage: re-pull from the CPU
            // master, which is always authoritative.
            ++stats->corrupt_syncs;
            tl.Charge(Phase::kFaultRecovery,
                      cost_.PcieTransferSeconds(active_hot_bytes));
            tl.AddPcieBytes(active_hot_bytes);
            break;
        }
      }
    }
    if (report.interrupted) break;

    const bool lookup_lost = lookup_loss_remaining > 0;
    if (degraded) ++report.degraded_batches;

    // --- Serve one request batch ----------------------------------------
    const std::span<const uint64_t> ids = stream.Next();
    if (cache_on) {
      // Advance the oracle: fetch/refresh this batch's still-missing cold
      // rows, slide the window, run the prefetch cursor ahead, and extend
      // the window by the next peeked batch. Residency is settled before
      // any request below is priced.
      const LookaheadCache::StepCharge sc = cache.OnStep();
      charge_cache_dma(sc.timely_prefetch_bytes + sc.late_prefetch_bytes);
      if (b + options_.cache_lookahead < total_batches) {
        cache.PushBatch(flat, stream.Peek(options_.cache_lookahead - 1));
      }
    }
    uint64_t batch_hot = 0;
    uint64_t batch_miss = 0;
    uint64_t batch_cache = 0;
    double gpu_seconds = 0.0;
    double cpu_seconds = 0.0;
    double pcie_seconds = 0.0;
    uint64_t pcie_bytes = 0;
    for (uint64_t id : ids) {
      double latency = 0.0;
      for (size_t t = 0; t < flat.schema().num_tables(); ++t) {
        for (uint32_t row : flat.lookups(t, id)) {
          const bool hot = active.IsHot(t, row);
          if (hot) ++batch_hot;
          else ++batch_miss;
          if (hot && !lookup_lost) {
            latency += hit_seconds;
            gpu_seconds += hit_seconds;
          } else if (!hot && !lookup_lost && cache_on &&
                     cache.IsResident(t, row)) {
            // Cold lookup answered by the oracle cache's GPU replica (the
            // replica rides the same lookup-path GPU as the hot slice, so
            // a lost device takes both to the master).
            ++batch_cache;
            latency += cache_hit_seconds;
            gpu_seconds += cache_hit_seconds;
          } else {
            // Cold lookup — or a hot one answered by the CPU master while
            // the lookup-path GPU is out. Slower, never dropped. The
            // *storage* partition (the offline plan's, fixed across swaps)
            // decides whether the master read is quantized.
            const bool storage_cold =
                quantized && !plan.hot_set.IsHot(t, row);
            latency += storage_cold ? miss_seconds_q : miss_seconds;
            cpu_seconds += storage_cold ? miss_gather_q : miss_gather;
            pcie_seconds += miss_pcie;
            pcie_bytes += row_bytes;
          }
        }
      }
      report.latency_ns.Add(
          static_cast<uint64_t>(std::llround(latency * 1e9)));
    }
    tl.ChargeGpu(Phase::kEmbeddingForward, gpu_seconds);
    tl.ChargeCpu(Phase::kEmbeddingForward, cpu_seconds);
    tl.Charge(Phase::kCpuGpuTransfer, pcie_seconds);
    tl.AddPcieBytes(pcie_bytes);

    ++report.batches;
    report.requests += ids.size();
    report.lookups += batch_hot + batch_miss;
    report.misses += batch_miss - batch_cache;
    report.cache_hits += batch_cache;
    cache_saved += static_cast<double>(batch_cache) *
                   (miss_seconds - cache_hit_seconds);
    if (lookup_lost) {
      report.master_fallbacks += batch_hot;
    } else if (degraded) {
      report.stale_hits += batch_hot;
    } else {
      report.hot_hits += batch_hot;
    }

    if (lookup_lost && --lookup_loss_remaining == 0) {
      // Device back: re-replicate the hot slice and restore fresh service.
      accountant_.ChargeSyncToGpus(active_hot_bytes, tl);
      ++stats->recoveries;
    }

    // --- Continuous training (one step per served batch) ----------------
    if (options_.continuous_training) {
      flat.GatherInto(ids, &train_ws);
      const BatchView view = MakeBatchView(train_ws, 0, ids.size(), false);
      exec_.MathStep(view, master_tables, metric, window_metric);
      accountant_.ChargeBaselineStep(model_->Work(view), tl);
      ++report.train_steps;
      if (quantized) {
        // Serving has no chunk boundaries, so the sync point is every
        // continuous-training step: requantize the rows the step staged
        // before the next request batch reads them. The staging buffer
        // keeps its capacity, so steady state stays allocation-free.
        for (EmbeddingTable* t : master_tables) {
          if (t->compressed()) t->FlushStaged();
        }
      }
      if (cache_on) {
        // The step just rewrote this batch's master rows: refresh the
        // resident copies eagerly so the replica never answers a request
        // from a superseded row.
        charge_cache_dma(cache.RefreshUpdated(flat, ids));
      }
    }

    // --- Drift detection -------------------------------------------------
    // Coverage measures the active set against current traffic regardless
    // of serving health — a stale set under drift must keep pulling the
    // EMA down so recalibration retriggers once the cooldown reopens.
    const uint64_t batch_lookups = batch_hot + batch_miss;
    if (batch_lookups > 0) {
      const double coverage =
          static_cast<double>(batch_hot) / static_cast<double>(batch_lookups);
      ema = (1.0 - options_.ema_alpha) * ema + options_.ema_alpha * coverage;
    }
    if (cooldown > 0) --cooldown;

    if (options_.swap_path.empty() || ema >= options_.slo_hit_rate ||
        cooldown > 0) {
      continue;
    }

    // --- Incremental recalibration over the recent-traffic window --------
    ++report.recal_attempts;
    cooldown = options_.recal_cooldown;
    const std::vector<uint64_t> window_ids =
        stream.RecentWindow(options_.recal_window);
    Dataset window_ds(flat.Gather(window_ids));
    const uint64_t window_bytes =
        window_ds.flat().total_lookups() * sizeof(uint32_t) +
        window_ds.size() * window_ds.schema().num_dense * sizeof(float);
    // Re-running the sampler + classifier streams the window twice (profile
    // pass + classification pass).
    const double base_seconds =
        2.0 * cost_.StreamSeconds(window_bytes, system_.cpu);

    // Watchdog: each pass is charged in full; a pass over the deadline is
    // aborted and retried after a backoff, up to the retry budget.
    bool recal_ok = false;
    for (uint32_t attempt = 0; attempt < options_.max_recal_retries;
         ++attempt) {
      double pass_seconds = base_seconds;
      if (has_armed_recal_stall) {
        pass_seconds += armed_recal_stall;
        has_armed_recal_stall = false;
        armed_recal_stall = 0.0;
      }
      tl.ChargeCpu(Phase::kInputPrep, pass_seconds);
      if (pass_seconds > options_.watchdog_deadline_seconds) {
        ++report.deadline_misses;
        tl.Charge(Phase::kFaultRecovery, options_.retry_backoff_seconds);
        continue;
      }
      recal_ok = true;
      break;
    }
    if (!recal_ok) {
      ++report.recal_failures;
      degraded = true;  // serve the stale set; training continues
      continue;
    }

    std::vector<uint64_t> window_train(window_ds.size());
    std::iota(window_train.begin(), window_train.end(), 0);
    // The sliding window is already a small sample of live traffic;
    // sub-sampling it again (the offline pass's sample_rate) starves the
    // profile, so the incremental pass profiles the whole window.
    FaeConfig recal_config = fae_config_;
    recal_config.sample_rate = 1.0;
    StatusOr<FaePlan> fresh =
        FaePipeline(recal_config).Prepare(window_ds, window_train);
    if (!fresh.ok()) {
      ++report.recal_failures;
      degraded = true;
      continue;
    }

    // --- Atomic hot-swap through the FaeFormat container ------------------
    // Fingerprinted against the *serving* dataset so the loader applies the
    // same compatibility check an offline artifact would face.
    FaePreprocessed pre;
    pre.fingerprint = FaeFormat::Fingerprint(dataset);
    pre.threshold = fresh->threshold;
    pre.h_zt = fresh->h_zt;
    pre.hot_set = std::move(fresh->hot_set);
    const Status saved = FaeFormat::Save(options_.swap_path, pre);
    if (!saved.ok()) {
      ++report.recal_failures;
      degraded = true;
      continue;
    }
    if (armed_swap_crash) {
      armed_swap_crash = false;
      TearSwapArtifact(options_.swap_path);
    }
    StatusOr<FaePreprocessed> loaded =
        FaeFormat::Load(options_.swap_path, dataset);
    if (!loaded.ok()) {
      // Torn or incompatible artifact: the container's all-or-nothing load
      // rejects it and the previous hot set stays active.
      ++report.swap_rejects;
      degraded = true;
      continue;
    }
    active = std::move(loaded->hot_set);
    active_hot_bytes = active.HotBytes(dim);
    accountant_.ChargeSyncToGpus(active_hot_bytes, tl);
    if (cache_on) {
      // Rows the swap promoted now live in the replicated hot slice:
      // cached copies are dropped, freeing budget for the new cold tail.
      // (The cache pins through `active`, which already holds the new
      // set; demoted rows simply become cacheable again.)
      cache.DropPinned(active);
    }
    ++report.swaps;
    if (degraded) {
      degraded = false;
      ++stats->recoveries;
    }
  }

  // --- Finalize ----------------------------------------------------------
  report.degraded_at_exit = degraded;
  if (report.lookups > 0) {
    report.hit_rate = static_cast<double>(report.hot_hits) /
                      static_cast<double>(report.lookups);
  }
  report.coverage_ema = ema;
  if (cache_on) {
    const uint64_t cold_lookups = report.cache_hits + report.misses;
    if (cold_lookups > 0) {
      report.cache_hit_rate = static_cast<double>(report.cache_hits) /
                              static_cast<double>(cold_lookups);
    }
    report.cache_saved_seconds = cache_saved;
    report.cache_stale_refreshes = cache.stats().stale_refreshes;
    report.cache_prefetch_bytes = cache.stats().prefetch_bytes;
  }
  report.p50_latency_ns = report.latency_ns.ApproximateQuantile(0.50);
  report.p99_latency_ns = report.latency_ns.ApproximateQuantile(0.99);
  report.modeled_seconds = tl.PhaseSumSeconds();
  report.faults = *stats;
  if (options_.continuous_training) {
    report.train_loss = metric.mean_loss();
    report.train_acc = metric.accuracy();
  }
  return report;
}

}  // namespace fae
