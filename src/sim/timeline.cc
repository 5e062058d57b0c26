#include "sim/timeline.h"

#include "util/string_util.h"

namespace fae {

std::string_view PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kEmbeddingForward:
      return "embedding_forward";
    case Phase::kMlpForward:
      return "mlp_forward";
    case Phase::kMlpBackward:
      return "mlp_backward";
    case Phase::kEmbeddingBackward:
      return "embedding_backward";
    case Phase::kOptimizerDense:
      return "optimizer_dense";
    case Phase::kOptimizerSparse:
      return "optimizer_sparse";
    case Phase::kCpuGpuTransfer:
      return "cpu_gpu_transfer";
    case Phase::kAllReduce:
      return "all_reduce";
    case Phase::kEmbeddingSync:
      return "embedding_sync";
    case Phase::kNetwork:
      return "inter_node_comm";
    case Phase::kFaultRecovery:
      return "fault_recovery";
    case Phase::kInputPrep:
      return "input_prep";
    case Phase::kNumPhases:
      break;
  }
  return "unknown";
}

double Timeline::PhaseSumSeconds() const {
  double total = 0.0;
  for (double s : seconds_) total += s;
  return total;
}

double Timeline::OverlappedTotalSeconds() const {
  const double total = PhaseSumSeconds();
  const double saved =
      overlap_saved_ + cache_saved_ + sharding_saved_ + stale_skip_saved_;
  return saved < total ? total - saved : 0.0;
}

double Timeline::OverlapFraction() const {
  const double total = PhaseSumSeconds();
  if (total <= 0.0 || overlap_saved_ <= 0.0) return 0.0;
  return overlap_saved_ >= total ? 1.0 : overlap_saved_ / total;
}

std::string Timeline::Report() const {
  const double total = PhaseSumSeconds();
  std::string out = StrFormat("total %s\n", HumanSeconds(total).c_str());
  for (int i = 0; i < static_cast<int>(Phase::kNumPhases); ++i) {
    if (seconds_[i] == 0.0) continue;
    out += StrFormat("  %-20s %12s  %5.1f%%\n",
                     std::string(PhaseName(static_cast<Phase>(i))).c_str(),
                     HumanSeconds(seconds_[i]).c_str(),
                     total > 0 ? 100.0 * seconds_[i] / total : 0.0);
  }
  if (overlap_saved_ > 0.0) {
    out += StrFormat("  overlap hid %s (%.1f%%): pipelined wall %s\n",
                     HumanSeconds(overlap_saved_).c_str(),
                     100.0 * OverlapFraction(),
                     HumanSeconds(OverlappedTotalSeconds()).c_str());
  }
  if (cache_counters_.hits + cache_counters_.misses > 0) {
    const double looks = static_cast<double>(cache_counters_.hits +
                                             cache_counters_.misses);
    out += StrFormat(
        "  lookahead cache: %.1f%% hit, saved %s, prefetch %s, "
        "writeback %s\n",
        100.0 * static_cast<double>(cache_counters_.hits) / looks,
        HumanSeconds(cache_saved_).c_str(),
        HumanBytes(cache_counters_.prefetch_bytes).c_str(),
        HumanBytes(cache_counters_.writeback_bytes).c_str());
  }
  if (sharding_saved_ != 0.0) {
    out += StrFormat("  sharded placement %s %s vs replicate\n",
                     sharding_saved_ > 0.0 ? "saved" : "cost",
                     HumanSeconds(sharding_saved_ > 0.0 ? sharding_saved_
                                                        : -sharding_saved_)
                         .c_str());
  }
  if (stale_skip_counters_.skipped_rows + stale_skip_counters_.updated_rows >
      0) {
    const double touched =
        static_cast<double>(stale_skip_counters_.skipped_rows +
                            stale_skip_counters_.updated_rows);
    out += StrFormat(
        "  stale skip: %.1f%% of row-updates skipped, saved %s, "
        "reactivated %llu\n",
        100.0 * static_cast<double>(stale_skip_counters_.skipped_rows) /
            touched,
        HumanSeconds(stale_skip_saved_).c_str(),
        static_cast<unsigned long long>(stale_skip_counters_.reactivated_rows));
  }
  out += StrFormat("  pcie %s, nvlink %s, network %s\n",
                   HumanBytes(pcie_bytes_).c_str(),
                   HumanBytes(nvlink_bytes_).c_str(),
                   HumanBytes(network_bytes_).c_str());
  return out;
}

}  // namespace fae
