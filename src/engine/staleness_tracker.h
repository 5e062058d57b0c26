#ifndef FAE_ENGINE_STALENESS_TRACKER_H_
#define FAE_ENGINE_STALENESS_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "embedding/sparse_sgd.h"

namespace fae {

/// Which rows stale-update skipping may freeze (TrainOptions::stale_skip).
enum class StaleSkipMode {
  kOff,   // every touched row updates (the default)
  kCold,  // only cold rows may freeze; the hot set always updates (FAE)
  kAll,   // any row may freeze once its EMA settles
};

std::string_view StaleSkipModeName(StaleSkipMode mode);

/// Per-row staleness tracking for optimizer-update skipping (ROADMAP item 1,
/// the Slipstream follow-up: "Accelerating Recommender Model Training by
/// Dynamically Skipping Stale Embeddings", arXiv 2404.04270).
///
/// Each row carries an EMA of its relative update magnitude
/// ‖lr·Δrow‖ / ‖row‖, maintained inside the fused sparse backward+step by
/// whichever thread owns the row there — one writer per row, so the EMA
/// stream is bit-identical for any thread count and pipeline mode. Rows
/// whose EMA falls below the live threshold after `min_visits` measured
/// updates are *frozen*: their gradient scatter and optimizer visit are
/// elided and the row serves lookups verbatim. Every `revisit_period`-th
/// consecutive skip the row is force-updated to re-measure — a row whose
/// gradients resume moving thaws by itself (counted as a reactivation).
///
/// An accuracy guard mirrors the Shuffle Scheduler's Eq-7 loss-trend
/// adaptation: a rising test loss halves the threshold (skip less) and
/// un-freezes every frozen row; `patience` consecutive decreases double it
/// (skip more), capped at 8x the configured value. A threshold of exactly 0
/// never skips — the guard multiplies it, so 0 is a fixed point and the run
/// stays bit-identical to stale_skip=off (the bench's identity gate).
///
/// All per-row state is preallocated in Init; BeginVisit/RecordUpdate are
/// allocation-free (enforced by fae_zero_alloc_test).
class StalenessTracker {
 public:
  struct Options {
    double threshold = 0.0;      // EMA floor below which a row may freeze
    uint32_t min_visits = 8;     // measured updates before skipping starts
    double ema_alpha = 0.125;    // EMA smoothing factor
    uint32_t revisit_period = 16;  // every Nth consecutive skip re-measures
    int patience = 4;            // Eq-7 u: decreases before widening
  };

  /// Complete per-row + guard state, capturable at checkpoint boundaries:
  /// restoring it continues skip decisions (including the adapted
  /// threshold and every row's EMA/visit/streak history) exactly where
  /// they were captured, which is what makes same-mode resume bit-exact.
  /// Run counters (skipped/updated/reactivated) are deliberately NOT part
  /// of it — like the Timeline overlay accumulators, they are reporting
  /// only and restart from zero on resume.
  struct TableState {
    std::vector<float> ema;
    std::vector<uint32_t> visits;
    std::vector<uint32_t> streak;
  };
  struct State {
    double threshold = 0.0;
    bool has_prev_loss = false;
    double prev_loss = 0.0;
    int32_t consecutive_decreases = 0;
    std::vector<TableState> tables;
  };

  /// Adapter binding one table's index into the embedding layer's
  /// RowUpdateFilter hook (the fused step only sees its own table).
  class TableFilter : public RowUpdateFilter {
   public:
    TableFilter() = default;
    TableFilter(StalenessTracker* tracker, size_t table)
        : tracker_(tracker), table_(table) {}
    bool BeginVisit(uint64_t row, uint32_t lookups) override {
      return tracker_->BeginVisit(table_, row, lookups);
    }
    void RecordUpdate(uint64_t row, uint32_t lookups, double update_sq,
                      double row_sq) override {
      tracker_->RecordUpdate(table_, row, lookups, update_sq, row_sq);
    }

   private:
    StalenessTracker* tracker_ = nullptr;
    size_t table_ = 0;
  };

  StalenessTracker() = default;
  StalenessTracker(const StalenessTracker&) = delete;
  StalenessTracker& operator=(const StalenessTracker&) = delete;

  /// Sizes the per-row arrays; `table_rows[t]` is table t's row count.
  void Init(const std::vector<uint64_t>& table_rows, const Options& options);

  /// The filter to pass into table t's fused backward+step. Valid after
  /// Init, stable until the next Init.
  RowUpdateFilter* filter(size_t table) { return &filters_[table]; }

  /// Marks rows that must always update (the hot set, in stale_skip=cold):
  /// BeginVisit never skips them. Call after Init, once per table.
  void SetAlwaysUpdate(size_t table, std::span<const uint32_t> rows);

  /// Skip decision for one row at the top of its fused backward+step
  /// visit. Returns true when the update should be elided, bumping the
  /// row's skip streak and the step's skip counters; on false the caller
  /// applies the update and reports it through RecordUpdate. `lookups` is
  /// the number of gradient rows pooled into this row this step (its
  /// scatter share, for the cost split). Thread-safe under the fused
  /// step's one-thread-per-row partition.
  bool BeginVisit(size_t table, uint64_t row, uint32_t lookups);

  /// Folds one applied update into the row's EMA. `update_sq` is
  /// ‖lr·Δrow‖², `row_sq` is ‖row‖² before the update.
  void RecordUpdate(size_t table, uint64_t row, uint32_t lookups,
                    double update_sq, double row_sq);

  /// Eq-7-style accuracy guard, fed the chunk/eval test loss:
  ///   - loss increased            -> threshold halves (skip less) and every
  ///                                  frozen row is re-activated;
  ///   - `patience` decreases      -> threshold doubles (skip more), capped;
  ///   - otherwise                 -> unchanged.
  void OnTestLoss(double loss);

  /// Zeroes the per-step traffic split (call at the top of each step).
  void BeginStep();

  /// This step's skip/update split, which the trainer prices through
  /// StepAccountant::ChargeBaselineStepParts with only the live rows.
  uint64_t step_skipped_rows() const {
    return step_skipped_rows_.load(std::memory_order_relaxed);
  }
  uint64_t step_updated_rows() const {
    return step_updated_rows_.load(std::memory_order_relaxed);
  }
  uint64_t step_skipped_lookups() const {
    return step_skipped_lookups_.load(std::memory_order_relaxed);
  }
  uint64_t step_live_lookups() const {
    return step_live_lookups_.load(std::memory_order_relaxed);
  }

  /// Run totals (reporting only; reset by Init and Restore).
  uint64_t total_skipped_rows() const {
    return total_skipped_rows_.load(std::memory_order_relaxed);
  }
  uint64_t total_updated_rows() const {
    return total_updated_rows_.load(std::memory_order_relaxed);
  }
  uint64_t total_reactivated_rows() const {
    return total_reactivated_rows_.load(std::memory_order_relaxed);
  }
  uint64_t guard_tightens() const { return guard_tightens_; }
  uint64_t guard_widens() const { return guard_widens_; }

  double threshold() const { return threshold_; }
  size_t num_tables() const { return tables_.size(); }

  /// True when `row` is currently frozen (would skip a non-revisit visit).
  bool IsFrozen(size_t table, uint64_t row) const;

  State state() const;
  void Restore(const State& state);

 private:
  struct PerTable {
    std::vector<float> ema;
    std::vector<uint32_t> visits;
    std::vector<uint32_t> streak;
    std::vector<uint8_t> always_update;  // empty unless SetAlwaysUpdate ran
  };

  Options options_;
  double threshold_ = 0.0;
  double max_threshold_ = 0.0;

  bool has_prev_loss_ = false;
  double prev_loss_ = 0.0;
  int consecutive_decreases_ = 0;

  std::vector<PerTable> tables_;
  std::vector<TableFilter> filters_;

  // Per-step split: rows are visited by concurrent pool workers, so the
  // counters are atomic; sums are order-independent, hence deterministic.
  std::atomic<uint64_t> step_skipped_rows_{0};
  std::atomic<uint64_t> step_updated_rows_{0};
  std::atomic<uint64_t> step_skipped_lookups_{0};
  std::atomic<uint64_t> step_live_lookups_{0};

  // Run totals: skipped/updated/reactivated are bumped from pool workers
  // alongside the step counters, so they are atomic too; the guard
  // counters only move on the (single-threaded) OnTestLoss path.
  std::atomic<uint64_t> total_skipped_rows_{0};
  std::atomic<uint64_t> total_updated_rows_{0};
  std::atomic<uint64_t> total_reactivated_rows_{0};
  uint64_t guard_tightens_ = 0;
  uint64_t guard_widens_ = 0;
};

}  // namespace fae

#endif  // FAE_ENGINE_STALENESS_TRACKER_H_
