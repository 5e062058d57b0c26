#include "sim/cost_model.h"

#include <algorithm>

#include "util/logging.h"

namespace fae {

double CostModel::DenseComputeSeconds(uint64_t flops,
                                      const DeviceSpec& dev) const {
  FAE_CHECK_GT(dev.peak_flops, 0.0);
  return static_cast<double>(flops) /
         (dev.peak_flops * dev.dense_efficiency);
}

double CostModel::DenseComputeSeconds(uint64_t flops,
                                      uint64_t per_device_batch,
                                      const DeviceSpec& dev) const {
  const double base = DenseComputeSeconds(flops, dev);
  if (dev.half_batch <= 0.0 || per_device_batch == 0) return base;
  const double b = static_cast<double>(per_device_batch);
  const double utilization = b / (b + dev.half_batch);
  return base / utilization;
}

double CostModel::GatherSeconds(uint64_t bytes, const DeviceSpec& dev) const {
  FAE_CHECK_GT(dev.mem_bandwidth, 0.0);
  return static_cast<double>(bytes) /
         (dev.mem_bandwidth * dev.gather_efficiency);
}

double CostModel::StreamSeconds(uint64_t bytes, const DeviceSpec& dev) const {
  FAE_CHECK_GT(dev.mem_bandwidth, 0.0);
  return static_cast<double>(bytes) /
         (dev.mem_bandwidth * dev.stream_efficiency);
}

double CostModel::PcieTransferSeconds(uint64_t bytes) const {
  if (bytes == 0) return 0.0;
  return sys_.pcie.host_sync_seconds + sys_.pcie.latency +
         static_cast<double>(bytes) / sys_.pcie.bandwidth;
}

namespace {

// Ring all-reduce over one link tier: 2*(n-1)/n of the payload per rank,
// in 2*(n-1) latency-bound steps.
double RingAllReduce(uint64_t bytes, int n, const LinkSpec& link) {
  if (n <= 1 || bytes == 0) return 0.0;
  const double volume =
      2.0 * (n - 1) / static_cast<double>(n) * static_cast<double>(bytes);
  return 2.0 * (n - 1) * link.latency + volume / link.bandwidth;
}

}  // namespace

double CostModel::AllReduceSeconds(uint64_t bytes) const {
  if (bytes == 0) return 0.0;
  const double intra = RingAllReduce(bytes, sys_.num_gpus, sys_.nvlink);
  if (sys_.num_nodes <= 1) return intra;
  // Hierarchical: reduce-scatter/allgather within the node, ring across
  // nodes on each node's 1/g shard, then the intra stage's broadcast half
  // (already folded into `intra`'s 2x volume).
  const uint64_t shard =
      bytes / static_cast<uint64_t>(std::max(1, sys_.num_gpus));
  return intra + RingAllReduce(shard, sys_.num_nodes, sys_.network);
}

double CostModel::NetworkTransferSeconds(uint64_t bytes) const {
  if (bytes == 0) return 0.0;
  return sys_.network.latency +
         static_cast<double>(bytes) / sys_.network.bandwidth;
}

double CostModel::AverageGpuWatts(double elapsed_seconds,
                                  double gpu_busy_seconds,
                                  double comm_seconds) const {
  if (elapsed_seconds <= 0.0) return 0.0;
  const double busy = std::min(gpu_busy_seconds, elapsed_seconds);
  const double comm = std::min(comm_seconds, elapsed_seconds);
  const double energy =
      sys_.gpu.idle_watts * elapsed_seconds +
      (sys_.gpu.busy_watts - sys_.gpu.idle_watts) * busy +
      sys_.pcie.endpoint_active_watts * comm;
  return energy / elapsed_seconds;
}

}  // namespace fae
