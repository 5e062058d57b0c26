#ifndef FAE_SERVE_SERVE_CONFIG_H_
#define FAE_SERVE_SERVE_CONFIG_H_

#include <cstdint>
#include <string>

#include "embedding/cold_precision.h"
#include "engine/lookahead_cache.h"
#include "sim/fault_injector.h"
#include "util/statusor.h"

namespace fae {

/// Knobs of the online serving + continuous-recalibration loop
/// (serve/serving_loop.h), defaulted for the synthetic workloads.
///
/// The numeric fields round-trip through a versioned text format
/// (Parse/Serialize) so deployments can ship a serving config next to the
/// preprocessed FAE artifact; `fault_injector` and `swap_path` are runtime
/// wiring and stay out of the serialized form.
struct ServeOptions {
  /// Requests served per serving batch (also the continuous-training
  /// mini-batch when `continuous_training` is on).
  size_t batch_size = 256;
  /// Serving batches to run; 0 means one pass over the request stream's
  /// dataset.
  size_t num_batches = 0;

  // --- SLO guardrails / drift detection ---------------------------------
  /// The hit-rate SLO: when the EMA of the hot-slice coverage drops below
  /// this, the drift detector triggers an incremental recalibration.
  double slo_hit_rate = 0.75;
  /// EMA coefficient of the per-batch hot-coverage signal (higher = more
  /// reactive, noisier).
  double ema_alpha = 0.05;

  // --- Continuous recalibration -----------------------------------------
  /// Sliding window of the most recent requests the sampler/Rand-Em
  /// pipeline re-runs over when recalibrating.
  size_t recal_window = 8192;
  /// Minimum serving batches between recalibration attempts, so a slice
  /// that cannot meet the SLO does not thrash the sampler.
  size_t recal_cooldown = 32;

  // --- Watchdog ----------------------------------------------------------
  /// Modeled deadline for one recalibration pass; a pass exceeding it is
  /// aborted by the watchdog and retried with backoff.
  double watchdog_deadline_seconds = 0.25;
  /// Retry budget for deadline-missed recalibrations; exhausting it leaves
  /// serving in degraded (stale hot set) mode until the next cooldown
  /// window opens.
  uint32_t max_recal_retries = 3;
  /// Backoff charged (Phase::kFaultRecovery) before each recal retry.
  double retry_backoff_seconds = 0.01;

  // --- Continuous training -----------------------------------------------
  /// Run one training step per served batch against the CPU master tables
  /// (training never pauses during recalibration or degraded service).
  bool continuous_training = true;
  float dense_lr = 0.1f;
  float sparse_lr = 0.1f;

  size_t num_threads = 1;
  uint64_t seed = 7;

  // --- Runtime wiring (not serialized) -----------------------------------
  /// Path for the atomic hot-swap artifact (FaeFormat container); empty
  /// disables recalibration entirely (serve the initial plan forever).
  std::string swap_path;
  /// Optional fault schedule (sim/fault_injector.h); not owned. Steps are
  /// serving-batch indices.
  FaultInjector* fault_injector = nullptr;

  // --- Lookahead oracle cache (runtime wiring, not serialized) ------------
  /// Oracle cache for *cold* lookups: the hot slice is the pinned tier and
  /// the cache prefetches upcoming cold rows by peeking the request
  /// stream. Like swap_path, a deployment decision rather than a workload
  /// parameter, so it stays out of the serialized form.
  CacheMode cache = CacheMode::kOff;
  size_t cache_budget_rows = 4096;
  size_t cache_lookahead = 8;

  /// Storage precision of cold master rows (embedding/cold_precision.h):
  /// the CPU-master fallback path answers storage-cold lookups out of the
  /// quantized store, so misses stream quantized bytes. The storage
  /// partition is the *offline plan's* and stays fixed across hot-swaps
  /// (requantizing on every swap would re-round; a swap only changes which
  /// rows are served from the GPU). Like the cache knobs, a deployment
  /// decision — runtime wiring, not serialized. Validate refuses it with
  /// the oracle cache, whose accounting assumes fp32 cold rows.
  ColdPrecision cold_precision = ColdPrecision::kFp32;

  /// Range-checks every field (batch_size >= 1, rates in (0, 1], positive
  /// deadlines, ...) and refuses quantized cold rows with the oracle
  /// cache. Parse, the CLI (on flag-built configs) and ServingLoop::Serve
  /// call it, so every construction path rejects the same garbage.
  Status Validate() const;

  /// Versioned `key=value` text form of the serializable fields.
  std::string Serialize() const;

  /// Inverse of Serialize. InvalidArgument on a bad header, unknown or
  /// duplicate keys, malformed numbers, or values failing Validate —
  /// never a crash, whatever the bytes (tests/fuzz_formats_test.cc).
  static StatusOr<ServeOptions> Parse(const std::string& text);
};

}  // namespace fae

#endif  // FAE_SERVE_SERVE_CONFIG_H_
