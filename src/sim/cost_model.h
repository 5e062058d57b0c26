#ifndef FAE_SIM_COST_MODEL_H_
#define FAE_SIM_COST_MODEL_H_

#include <cstdint>

#include "sim/device.h"
#include "sim/timeline.h"

namespace fae {

/// Converts work units (FLOPs, bytes) into modeled seconds against a
/// SystemSpec. All first-principles formulas; calibration constants live in
/// the DeviceSpec presets (sim/device.cc), not here.
class CostModel {
 public:
  explicit CostModel(SystemSpec system) : sys_(std::move(system)) {}

  const SystemSpec& system() const { return sys_; }

  /// Dense math (GEMMs) on `dev` at full occupancy.
  double DenseComputeSeconds(uint64_t flops, const DeviceSpec& dev) const;

  /// Dense math on `dev` when each kernel only sees `per_device_batch`
  /// rows; small batches under-fill GPUs (utilization = b/(b+half_batch)).
  double DenseComputeSeconds(uint64_t flops, uint64_t per_device_batch,
                             const DeviceSpec& dev) const;

  /// Random row gathers/scatters (embedding lookups) on `dev`.
  double GatherSeconds(uint64_t bytes, const DeviceSpec& dev) const;

  /// Streaming reads/writes (optimizer parameter sweeps) on `dev`.
  double StreamSeconds(uint64_t bytes, const DeviceSpec& dev) const;

  /// One CPU<->GPU transfer of `bytes` over PCIe.
  double PcieTransferSeconds(uint64_t bytes) const;

  /// All-reduce of `bytes` across every rank of the cluster. Single node:
  /// NVLink ring. Multi-node: hierarchical — intra-node NVLink ring, then
  /// an inter-node ring over the (much slower) network, then intra-node
  /// broadcast; the network stage dominates, which is why the paper cites
  /// GPU-GPU communication reaching 60% in distributed training.
  double AllReduceSeconds(uint64_t bytes) const;

  /// One node-to-node transfer of `bytes` over the cluster network.
  double NetworkTransferSeconds(uint64_t bytes) const;

  /// Average per-GPU power (the paper's Table VI metric) over a run of
  /// `elapsed_seconds` during which each GPU computed for `gpu_busy_seconds`
  /// and PCIe traffic kept it communication-active for `comm_seconds`.
  double AverageGpuWatts(double elapsed_seconds, double gpu_busy_seconds,
                         double comm_seconds) const;

 private:
  SystemSpec sys_;
};

}  // namespace fae

#endif  // FAE_SIM_COST_MODEL_H_
