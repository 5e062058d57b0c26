#include "sim/partition.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace fae {

uint64_t Partition::MaxWeight() const {
  uint64_t mx = 0;
  for (uint64_t w : bin_weight) mx = std::max(mx, w);
  return mx;
}

double Partition::Imbalance() const {
  if (bin_weight.empty()) return 1.0;
  uint64_t total = 0;
  for (uint64_t w : bin_weight) total += w;
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(bin_weight.size());
  return static_cast<double>(MaxWeight()) / mean;
}

Partition PartitionLpt(const std::vector<uint64_t>& weights, int num_bins) {
  FAE_CHECK_GE(num_bins, 1);
  Partition p;
  p.bin_of.assign(weights.size(), 0);
  p.bin_weight.assign(num_bins, 0);

  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return a < b;  // deterministic tie-break
  });
  for (size_t item : order) {
    int lightest = 0;
    for (int b = 1; b < num_bins; ++b) {
      if (p.bin_weight[b] < p.bin_weight[lightest]) lightest = b;
    }
    p.bin_of[item] = lightest;
    p.bin_weight[lightest] += weights[item];
  }
  return p;
}

std::string_view ShardingModeName(ShardingMode mode) {
  switch (mode) {
    case ShardingMode::kReplicate:
      return "replicate";
    case ShardingMode::kLpt:
      return "lpt";
  }
  return "unknown";
}

bool ParseShardingMode(std::string_view name, ShardingMode* out) {
  if (name == "replicate") {
    *out = ShardingMode::kReplicate;
  } else if (name == "lpt") {
    *out = ShardingMode::kLpt;
  } else {
    return false;
  }
  return true;
}

}  // namespace fae
