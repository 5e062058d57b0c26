#include "engine/step_accountant.h"

#include <algorithm>

#include "util/logging.h"

namespace fae {

std::string_view PipelineModeName(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kOff:
      return "off";
    case PipelineMode::kPrefetch:
      return "prefetch";
    case PipelineMode::kOverlap:
      return "overlap";
  }
  return "unknown";
}

uint64_t BatchInputBytes(const BatchView& v) {
  uint64_t elems = static_cast<uint64_t>(v.dense.rows) * v.dense.cols  //
                   + v.batch_size()      // labels
                   + v.TotalLookups();   // lookup indices
  for (size_t t = 0; t < v.num_tables(); ++t) {
    elems += v.offsets(t).size();  // CSR offsets
  }
  return elems * 4;  // every stream is 4-byte elements
}

void OverlapTracker::OnStep(double prep, double total, double overlapped) {
  if (mode_ == PipelineMode::kOff) return;
  double saved = 0.0;
  double unhidden = total;
  if (mode_ == PipelineMode::kOverlap) {
    saved += total - overlapped;
    unhidden = overlapped;
  }
  if (depth_ >= 2 && has_prev_) {
    saved += std::min(prep, prev_unhidden_);
  }
  prev_unhidden_ = unhidden;
  has_prev_ = true;
  if (saved > 0.0) tl_->AddOverlapSavedSeconds(saved);
}

void OverlapTracker::MarkChunkStart() {
  chunk_phase0_ = tl_->PhaseSumSeconds();
  chunk_saved0_ = tl_->overlap_saved_seconds();
}

double OverlapTracker::ChunkUnhiddenSeconds() const {
  return (tl_->PhaseSumSeconds() - chunk_phase0_) -
         (tl_->overlap_saved_seconds() - chunk_saved0_);
}

void StepAccountant::ChargeDenseNetwork(const BatchWork& w, Timeline& tl,
                                        BaselineParts* lanes) const {
  const SystemSpec& sys = cost_->system();
  const int world = std::max(1, sys.num_gpus) * std::max(1, sys.num_nodes);
  const uint64_t shard = w.batch_size / world;
  const double fwd =
      cost_->DenseComputeSeconds(w.forward_flops / world, shard, sys.gpu);
  tl.ChargeGpu(Phase::kMlpForward, fwd);
  const double bwd =
      cost_->DenseComputeSeconds(2 * w.forward_flops / world, shard, sys.gpu);
  tl.ChargeGpu(Phase::kMlpBackward, bwd);
  if (lanes != nullptr) lanes->gpu += fwd + bwd;
}

void StepAccountant::ChargeDenseUpdate(const BatchWork& w,
                                       uint64_t embedding_grad_bytes,
                                       Timeline& tl,
                                       BaselineParts* lanes) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const int nodes = std::max(1, sys.num_nodes);
  const uint64_t dense_bytes = w.dense_param_count * sizeof(float);
  const uint64_t grad_bytes = dense_bytes + embedding_grad_bytes;
  const double allreduce = cost_->AllReduceSeconds(grad_bytes);
  tl.Charge(Phase::kAllReduce, allreduce);
  if (g > 1) tl.AddNvlinkBytes(2 * (g - 1) * grad_bytes / g * g);
  if (nodes > 1) tl.AddNetworkBytes(2 * (nodes - 1) * grad_bytes / nodes);
  const double dense_opt = cost_->StreamSeconds(3 * dense_bytes, sys.gpu);
  tl.ChargeGpu(Phase::kOptimizerDense, dense_opt);
  if (lanes != nullptr) {
    lanes->serial += allreduce;
    lanes->gpu += dense_opt;
  }
}

StepAccountant::BaselineParts StepAccountant::ChargeBaselineStepParts(
    const BatchWork& w, Timeline& tl) const {
  return ChargeBaselineStepParts(
      w, StaleSkipTraffic{w.embedding_read_bytes, w.touched_bytes}, tl);
}

StepAccountant::BaselineParts StepAccountant::ChargeBaselineStepParts(
    const BatchWork& w, const StaleSkipTraffic& live, Timeline& tl) const {
  BaselineParts parts;
  const SystemSpec& sys = cost_->system();
  const int nodes = std::max(1, sys.num_nodes);
  const int world = std::max(1, sys.num_gpus) * nodes;

  // Embedding forward: random gathers on the CPUs. With one node the CPU
  // handles the full global batch (the baseline's bottleneck); multi-node
  // clusters shard the tables parameter-server style across the per-node
  // CPUs, so each CPU gathers 1/nodes of the traffic but (nodes-1)/nodes
  // of the pooled activations must cross the network each way.
  const double emb_fwd =
      cost_->GatherSeconds(w.embedding_read_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kEmbeddingForward, emb_fwd);
  parts.cpu += emb_fwd;
  if (nodes > 1) {
    const uint64_t remote =
        w.embedding_activation_bytes * (nodes - 1) / nodes;
    const double hop = cost_->NetworkTransferSeconds(remote / nodes);
    tl.Charge(Phase::kNetwork, hop);
    tl.Charge(Phase::kNetwork, hop);
    parts.serial += 2 * hop;
    tl.AddNetworkBytes(2 * remote);
  }

  // Pooled embedding activations to the GPUs (each GPU pulls its shard in
  // parallel over its own PCIe link).
  const double xfer =
      cost_->PcieTransferSeconds(w.embedding_activation_bytes / world);
  tl.Charge(Phase::kCpuGpuTransfer, xfer);
  parts.serial += xfer;
  tl.AddPcieBytes(w.embedding_activation_bytes);

  ChargeDenseNetwork(w, tl, &parts);

  // Embedding gradients back to the CPU, in full: the pooled gradient
  // tensor is batch-shaped, and stale skipping decides per row only after
  // it arrives.
  tl.Charge(Phase::kCpuGpuTransfer, xfer);
  parts.serial += xfer;
  tl.AddPcieBytes(w.embedding_activation_bytes);

  // Scatter the live rows' gradients into the tables, then the sparse
  // optimizer over them — both on the CPUs (paper Fig 14: the optimizer
  // dominates baseline time).
  const double emb_bwd =
      cost_->GatherSeconds(live.live_lookup_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kEmbeddingBackward, emb_bwd);
  const double sparse_opt =
      sys.cpu.sparse_update_overhead *
      cost_->GatherSeconds(3 * live.live_touched_bytes / nodes, sys.cpu);
  tl.ChargeCpu(Phase::kOptimizerSparse, sparse_opt);
  parts.cpu += emb_bwd + sparse_opt;

  ChargeDenseUpdate(w, /*embedding_grad_bytes=*/0, tl, &parts);
  return parts;
}

void StepAccountant::ChargeBaselineStep(const BatchWork& w,
                                        Timeline& tl) const {
  (void)ChargeBaselineStepParts(w, tl);
}

double StepAccountant::ChargeInputPrep(uint64_t batch_bytes,
                                       Timeline& tl) const {
  // Staging a mini-batch is a CPU gather (random sample rows) into a
  // contiguous workspace; model it as random-access traffic at the CPU's
  // gather efficiency. Derived from batch contents alone, so cost-only and
  // math runs charge identically.
  const double seconds =
      cost_->GatherSeconds(batch_bytes, cost_->system().cpu);
  tl.ChargeCpu(Phase::kInputPrep, seconds);
  return seconds;
}

void StepAccountant::ChargeHotStep(const BatchWork& w, Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int world = std::max(1, sys.num_gpus) * std::max(1, sys.num_nodes);

  // Embedding lookups on each GPU's replica, sharded over the batch.
  tl.ChargeGpu(Phase::kEmbeddingForward,
               cost_->GatherSeconds(w.embedding_read_bytes / world, sys.gpu));
  ChargeDenseNetwork(w, tl);
  tl.ChargeGpu(Phase::kEmbeddingBackward,
               cost_->GatherSeconds(w.embedding_read_bytes / world, sys.gpu));

  // Optimizers run on every GPU against its own replica (full update each,
  // concurrently) — the "massively parallel" step the baseline wastes on
  // the CPU. One all-reduce covers dense *and* hot-embedding gradients
  // (§II-B(3): "all-reduce on all the gradients including both embedding
  // and neural network layers over the fast NVLink").
  tl.ChargeGpu(Phase::kOptimizerSparse,
               sys.gpu.sparse_update_overhead *
                   cost_->GatherSeconds(3 * w.touched_bytes, sys.gpu));
  ChargeDenseUpdate(w, w.touched_bytes, tl);
}

void StepAccountant::ChargeSyncToGpus(uint64_t hot_bytes,
                                      Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const int nodes = std::max(1, sys.num_nodes);
  // Broadcast over per-GPU PCIe links proceeds in parallel; remote nodes
  // first receive the slice over the network (sends fan out in parallel).
  tl.Charge(Phase::kEmbeddingSync, cost_->PcieTransferSeconds(hot_bytes));
  tl.AddPcieBytes(hot_bytes * static_cast<uint64_t>(g * nodes));
  if (nodes > 1) {
    tl.Charge(Phase::kEmbeddingSync,
              cost_->NetworkTransferSeconds(hot_bytes));
    tl.AddNetworkBytes(hot_bytes * static_cast<uint64_t>(nodes - 1));
  }
}

void StepAccountant::ChargeSyncToCpu(uint64_t hot_bytes, Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int nodes = std::max(1, sys.num_nodes);
  // All replicas are identical; the GPU nearest each CPU shard ships the
  // rows back, and with sharded masters each node's share crosses PCIe
  // locally (no inter-node hop needed).
  tl.Charge(Phase::kEmbeddingSync,
            cost_->PcieTransferSeconds(hot_bytes / nodes));
  tl.AddPcieBytes(hot_bytes);
}

void StepAccountant::ChargeShardedHotStep(
    const BatchWork& w, uint64_t max_device_lookup_bytes,
    uint64_t max_device_optimizer_bytes, Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  const int nodes = std::max(1, sys.num_nodes);
  const int world = g * nodes;

  // Owners gather their tables' lookups for the whole global batch, so the
  // step waits on the most loaded owner.
  tl.ChargeGpu(Phase::kEmbeddingForward,
               cost_->GatherSeconds(max_device_lookup_bytes, sys.gpu));

  // All-to-all of the pooled activations (forward), and of their gradients
  // (backward). Each device exchanges with (world - 1) peers: (g - 1) of
  // them over NVLink, the other g * (nodes - 1) over the network, links of
  // all devices (nodes) running in parallel.
  if (world > 1 && w.embedding_read_bytes > 0) {
    const uint64_t exchanged =
        w.embedding_activation_bytes * (world - 1) / world;
    const uint64_t intra = exchanged * (g - 1) / (world - 1);
    const uint64_t inter = exchanged - intra;
    if (intra > 0) {
      const double a2a_nv =
          2.0 * sys.nvlink.latency + static_cast<double>(intra) /
                                         static_cast<double>(world) /
                                         sys.nvlink.bandwidth;
      tl.Charge(Phase::kAllReduce, a2a_nv);
      tl.Charge(Phase::kAllReduce, a2a_nv);
      tl.AddNvlinkBytes(2 * intra);
    }
    if (inter > 0) {
      const double a2a_net =
          2.0 * sys.network.latency + static_cast<double>(inter) /
                                          static_cast<double>(nodes) /
                                          sys.network.bandwidth;
      tl.Charge(Phase::kNetwork, a2a_net);
      tl.Charge(Phase::kNetwork, a2a_net);
      tl.AddNetworkBytes(2 * inter);
    }
  }

  ChargeDenseNetwork(w, tl);
  // Scatter mirrors the forward gathers.
  tl.ChargeGpu(Phase::kEmbeddingBackward,
               cost_->GatherSeconds(max_device_lookup_bytes, sys.gpu));

  // Each table is updated only by its owner, so the sparse optimizer waits
  // on the busiest one. Embedding gradients already reached their owners
  // through the all-to-all above; only the dense gradients are
  // all-reduced.
  tl.ChargeGpu(Phase::kOptimizerSparse,
               sys.gpu.sparse_update_overhead *
                   cost_->GatherSeconds(max_device_optimizer_bytes, sys.gpu));
  ChargeDenseUpdate(w, /*embedding_grad_bytes=*/0, tl);
}

void StepAccountant::ChargeShardedSync(uint64_t shard_bytes_total,
                                       uint64_t max_shard_bytes,
                                       Timeline& tl) const {
  const int nodes = std::max(1, cost_->system().num_nodes);
  tl.Charge(Phase::kEmbeddingSync,
            cost_->PcieTransferSeconds(max_shard_bytes));
  tl.AddPcieBytes(shard_bytes_total);
  if (nodes > 1) {
    const uint64_t remote_shards = shard_bytes_total * (nodes - 1) / nodes;
    tl.Charge(Phase::kEmbeddingSync,
              cost_->NetworkTransferSeconds(remote_shards / nodes));
    tl.AddNetworkBytes(remote_shards);
  }
}

void StepAccountant::ChargeNvOptStep(const BatchWork& w,
                                     const std::vector<bool>& table_on_gpu,
                                     size_t dim, size_t batch_size,
                                     Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);
  FAE_CHECK_EQ(table_on_gpu.size(), w.per_table_lookups.size());

  uint64_t gpu_lookup_bytes = 0;
  uint64_t gpu_touched_bytes = 0;
  uint64_t cpu_lookup_bytes = 0;
  uint64_t cpu_touched_bytes = 0;
  uint64_t cpu_activation_bytes = 0;
  const uint64_t row_bytes = dim * sizeof(float);
  for (size_t t = 0; t < table_on_gpu.size(); ++t) {
    const uint64_t lb = w.per_table_lookups[t] * row_bytes;
    const uint64_t tb = w.per_table_touched[t] * row_bytes;
    if (table_on_gpu[t]) {
      gpu_lookup_bytes += lb;
      gpu_touched_bytes += tb;
    } else {
      cpu_lookup_bytes += lb;
      cpu_touched_bytes += tb;
      cpu_activation_bytes += batch_size * row_bytes;  // pooled output
    }
  }

  // GPU-resident tables: fp16 storage halves the traffic but pays a
  // convert step folded into the gather efficiency here as +50% time.
  tl.ChargeGpu(Phase::kEmbeddingForward,
               1.5 * cost_->GatherSeconds(gpu_lookup_bytes / 2 / g, sys.gpu));
  tl.ChargeGpu(Phase::kEmbeddingBackward,
               1.5 * cost_->GatherSeconds(gpu_lookup_bytes / 2 / g, sys.gpu));
  tl.ChargeGpu(Phase::kOptimizerSparse,
               cost_->GatherSeconds(3 * gpu_touched_bytes / 2, sys.gpu));

  // CPU-resident tables follow the baseline path.
  if (cpu_lookup_bytes > 0) {
    tl.ChargeCpu(Phase::kEmbeddingForward,
                 cost_->GatherSeconds(cpu_lookup_bytes, sys.cpu));
    tl.Charge(Phase::kCpuGpuTransfer,
              cost_->PcieTransferSeconds(cpu_activation_bytes / g));
    tl.Charge(Phase::kCpuGpuTransfer,
              cost_->PcieTransferSeconds(cpu_activation_bytes / g));
    tl.AddPcieBytes(2 * cpu_activation_bytes);
    tl.ChargeCpu(Phase::kEmbeddingBackward,
                 cost_->GatherSeconds(cpu_lookup_bytes, sys.cpu));
    tl.ChargeCpu(Phase::kOptimizerSparse,
                 sys.cpu.sparse_update_overhead *
                     cost_->GatherSeconds(3 * cpu_touched_bytes, sys.cpu));
  }

  ChargeDenseNetwork(w, tl);
  // The fp16 rows' gradients ride the dense all-reduce.
  ChargeDenseUpdate(w, gpu_touched_bytes / 2, tl);
}

void StepAccountant::ChargeCacheStep(const BatchWork& w,
                                     uint64_t hit_lookup_bytes,
                                     uint64_t miss_lookup_bytes,
                                     uint64_t miss_touched_bytes,
                                     Timeline& tl) const {
  const SystemSpec& sys = cost_->system();
  const int g = std::max(1, sys.num_gpus);

  // Cache hits: local HBM gathers on each GPU's shard, through the cache
  // index (see kCacheIndirection).
  tl.ChargeGpu(Phase::kEmbeddingForward,
               kCacheIndirection *
                   cost_->GatherSeconds(hit_lookup_bytes / g, sys.gpu));
  // Misses stall the batch: the CPU gathers them and ships the rows over
  // PCIe, then takes the gradient rows back after the backward pass.
  if (miss_lookup_bytes > 0) {
    tl.ChargeCpu(Phase::kEmbeddingForward,
                 cost_->GatherSeconds(miss_lookup_bytes, sys.cpu));
    tl.Charge(Phase::kCpuGpuTransfer,
              cost_->PcieTransferSeconds(miss_lookup_bytes / g));
    tl.Charge(Phase::kCpuGpuTransfer,
              cost_->PcieTransferSeconds(miss_lookup_bytes / g));
    tl.AddPcieBytes(2 * miss_lookup_bytes);
    tl.ChargeCpu(Phase::kEmbeddingBackward,
                 cost_->GatherSeconds(miss_lookup_bytes, sys.cpu));
    tl.ChargeCpu(Phase::kOptimizerSparse,
                 sys.cpu.sparse_update_overhead *
                     cost_->GatherSeconds(3 * miss_touched_bytes, sys.cpu));
  }

  ChargeDenseNetwork(w, tl);

  // Cached rows: scatter + optimizer on the GPUs, gradients all-reduced
  // with the dense parameters (replicated cache, as in FAE's hot path).
  tl.ChargeGpu(Phase::kEmbeddingBackward,
               kCacheIndirection *
                   cost_->GatherSeconds(hit_lookup_bytes / g, sys.gpu));
  const uint64_t hit_touched_bytes =
      w.touched_bytes > miss_touched_bytes
          ? w.touched_bytes - miss_touched_bytes
          : 0;
  tl.ChargeGpu(Phase::kOptimizerSparse,
               sys.gpu.sparse_update_overhead *
                   cost_->GatherSeconds(3 * hit_touched_bytes, sys.gpu));
  ChargeDenseUpdate(w, hit_touched_bytes, tl);
}

StepAccountant::BaselineParts StepAccountant::ChargeOracleCacheStep(
    const BatchWork& w, const OracleCacheTraffic& t, Timeline& tl) const {
  BaselineParts parts;
  const SystemSpec& sys = cost_->system();
  const int nodes = std::max(1, sys.num_nodes);
  const int world = std::max(1, sys.num_gpus) * nodes;

  // Hit lookups: HBM gathers through the cache index, sharded over GPUs.
  const double hit_fwd =
      kCacheIndirection *
      cost_->GatherSeconds(t.hit_lookup_bytes / world, sys.gpu);
  tl.ChargeGpu(Phase::kEmbeddingForward, hit_fwd);
  parts.gpu += hit_fwd;

  // Miss lookups follow the plain hybrid path: CPU gathers, pooled
  // activations over PCIe both ways scaled by the miss share of the
  // batch's lookup traffic, CPU scatter + sparse optimizer on the way
  // back. With a hit rate of 1 this whole block (the baseline's critical
  // path) vanishes — that is the cache's entire win.
  const uint64_t lookup_total = t.hit_lookup_bytes + t.miss_lookup_bytes;
  if (t.miss_lookup_bytes > 0) {
    const uint64_t miss_activation_bytes =
        w.embedding_activation_bytes * t.miss_lookup_bytes / lookup_total;
    const double miss_fwd =
        cost_->GatherSeconds(t.miss_lookup_bytes / nodes, sys.cpu);
    tl.ChargeCpu(Phase::kEmbeddingForward, miss_fwd);
    const double xfer =
        cost_->PcieTransferSeconds(miss_activation_bytes / world);
    tl.Charge(Phase::kCpuGpuTransfer, xfer);
    tl.Charge(Phase::kCpuGpuTransfer, xfer);
    tl.AddPcieBytes(2 * miss_activation_bytes);
    parts.serial += 2 * xfer;
    const double miss_bwd =
        cost_->GatherSeconds(t.miss_lookup_bytes / nodes, sys.cpu);
    tl.ChargeCpu(Phase::kEmbeddingBackward, miss_bwd);
    const double miss_opt =
        sys.cpu.sparse_update_overhead *
        cost_->GatherSeconds(3 * t.miss_touched_bytes / nodes, sys.cpu);
    tl.ChargeCpu(Phase::kOptimizerSparse, miss_opt);
    parts.cpu += miss_fwd + miss_bwd + miss_opt;
  }

  ChargeDenseNetwork(w, tl, &parts);

  // Hit rows: scatter + sparse optimizer on the GPUs; their gradients ride
  // the dense all-reduce over NVLink (as in the FAE hot path).
  const double hit_bwd =
      kCacheIndirection *
      cost_->GatherSeconds(t.hit_lookup_bytes / world, sys.gpu);
  tl.ChargeGpu(Phase::kEmbeddingBackward, hit_bwd);
  const double hit_opt =
      sys.gpu.sparse_update_overhead *
      cost_->GatherSeconds(3 * t.hit_touched_bytes, sys.gpu);
  tl.ChargeGpu(Phase::kOptimizerSparse, hit_opt);
  parts.gpu += hit_bwd + hit_opt;
  ChargeDenseUpdate(w, t.hit_touched_bytes, tl, &parts);

  // Cache DMA, each GPU's shard over its own PCIe link in parallel. Late
  // fetches and writebacks sit on the critical path (the batch waits);
  // timely prefetch targets otherwise-idle PCIe, in its own lane so the
  // wall only pays what compute cannot hide.
  const uint64_t waited = t.late_prefetch_bytes + t.writeback_bytes;
  if (waited > 0) {
    const double sync = cost_->PcieTransferSeconds(waited / world);
    tl.Charge(Phase::kCpuGpuTransfer, sync);
    tl.AddPcieBytes(waited);
    parts.serial += sync;
  }
  if (t.timely_prefetch_bytes > 0) {
    parts.timely_dma =
        cost_->PcieTransferSeconds(t.timely_prefetch_bytes / world);
    tl.Charge(Phase::kCpuGpuTransfer, parts.timely_dma);
    tl.AddPcieBytes(t.timely_prefetch_bytes);
  }
  return parts;
}

}  // namespace fae
