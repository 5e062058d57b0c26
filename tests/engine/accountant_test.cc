#include "engine/step_accountant.h"

#include <gtest/gtest.h>

#include "sim/cost_model.h"

namespace fae {
namespace {

BatchWork MakeWork(size_t tables = 4) {
  BatchWork w;
  w.batch_size = 1024;
  w.forward_flops = 100'000'000;
  w.embedding_read_bytes = 4 << 20;
  w.embedding_activation_bytes = 1 << 20;
  w.touched_rows = 10'000;
  w.touched_bytes = w.touched_rows * 64;
  w.dense_param_count = 500'000;
  for (size_t t = 0; t < tables; ++t) {
    w.per_table_lookups.push_back(1024);
    w.per_table_touched.push_back(700);
  }
  return w;
}

class AccountantTest : public ::testing::Test {
 protected:
  AccountantTest() : cost_(MakePaperServer(4)), accountant_(&cost_) {}
  CostModel cost_;
  StepAccountant accountant_;
};

TEST_F(AccountantTest, BaselinePlacesPhasesOnExpectedDevices) {
  Timeline tl;
  accountant_.ChargeBaselineStep(MakeWork(), tl);
  // CPU: embedding fwd/bwd + sparse optimizer.
  EXPECT_GT(tl.seconds(Phase::kEmbeddingForward), 0.0);
  EXPECT_GT(tl.seconds(Phase::kOptimizerSparse), 0.0);
  EXPECT_GT(tl.cpu_busy_seconds(), 0.0);
  // GPU: MLPs + dense optimizer.
  EXPECT_GT(tl.seconds(Phase::kMlpForward), 0.0);
  EXPECT_GT(tl.gpu_busy_seconds(), 0.0);
  // Two PCIe crossings.
  EXPECT_EQ(tl.pcie_bytes(), 2u * (1 << 20));
  // No sync phase in the baseline.
  EXPECT_EQ(tl.seconds(Phase::kEmbeddingSync), 0.0);
}

TEST_F(AccountantTest, BaselineBackwardIsTwiceForward) {
  Timeline tl;
  accountant_.ChargeBaselineStep(MakeWork(), tl);
  EXPECT_NEAR(tl.seconds(Phase::kMlpBackward),
              2 * tl.seconds(Phase::kMlpForward), 1e-12);
}

TEST_F(AccountantTest, HotStepUsesNoPcieAndNoCpu) {
  Timeline tl;
  accountant_.ChargeHotStep(MakeWork(), tl);
  EXPECT_EQ(tl.pcie_bytes(), 0u);
  EXPECT_EQ(tl.cpu_busy_seconds(), 0.0);
  EXPECT_EQ(tl.seconds(Phase::kCpuGpuTransfer), 0.0);
  EXPECT_GT(tl.gpu_busy_seconds(), 0.0);
  EXPECT_GT(tl.nvlink_bytes(), 0u);  // gradient all-reduce
}

TEST_F(AccountantTest, HotStepFasterThanBaseline) {
  Timeline base;
  Timeline hot;
  accountant_.ChargeBaselineStep(MakeWork(), base);
  accountant_.ChargeHotStep(MakeWork(), hot);
  EXPECT_LT(hot.PhaseSumSeconds(), base.PhaseSumSeconds());
}

TEST_F(AccountantTest, HotAllReduceCoversEmbeddingGradients) {
  // With embedding gradients folded into the hot all-reduce, its payload
  // exceeds the baseline's dense-only all-reduce.
  Timeline base;
  Timeline hot;
  accountant_.ChargeBaselineStep(MakeWork(), base);
  accountant_.ChargeHotStep(MakeWork(), hot);
  EXPECT_GT(hot.nvlink_bytes(), base.nvlink_bytes());
}

TEST_F(AccountantTest, SyncChargesScaleWithBytes) {
  Timeline small;
  Timeline big;
  accountant_.ChargeSyncToGpus(1 << 20, small);
  accountant_.ChargeSyncToGpus(64 << 20, big);
  EXPECT_GT(big.seconds(Phase::kEmbeddingSync),
            small.seconds(Phase::kEmbeddingSync));
  // Broadcast counts bytes once per GPU (4 here).
  EXPECT_EQ(small.pcie_bytes(), 4ull << 20);

  Timeline back;
  accountant_.ChargeSyncToCpu(1 << 20, back);
  EXPECT_EQ(back.pcie_bytes(), 1ull << 20);
}

TEST_F(AccountantTest, CacheStepAllHitsAvoidsCpu) {
  Timeline tl;
  BatchWork w = MakeWork();
  accountant_.ChargeCacheStep(w, w.embedding_read_bytes, 0, 0, tl);
  EXPECT_EQ(tl.cpu_busy_seconds(), 0.0);
  EXPECT_EQ(tl.pcie_bytes(), 0u);
}

TEST_F(AccountantTest, CacheStepMissesPayHostRoundTrip) {
  Timeline tl;
  BatchWork w = MakeWork();
  const uint64_t miss = w.embedding_read_bytes / 10;
  accountant_.ChargeCacheStep(w, w.embedding_read_bytes - miss, miss,
                              w.touched_bytes / 10, tl);
  EXPECT_GT(tl.cpu_busy_seconds(), 0.0);
  EXPECT_EQ(tl.pcie_bytes(), 2 * miss);
  // Even a small miss payload costs at least two host interventions.
  EXPECT_GE(tl.seconds(Phase::kCpuGpuTransfer),
            2 * cost_.system().pcie.host_sync_seconds);
}

TEST_F(AccountantTest, CacheMoreMissesCostsMore) {
  BatchWork w = MakeWork();
  Timeline few;
  Timeline many;
  accountant_.ChargeCacheStep(w, w.embedding_read_bytes - 1024, 1024, 512,
                              few);
  accountant_.ChargeCacheStep(w, w.embedding_read_bytes / 2,
                              w.embedding_read_bytes / 2,
                              w.touched_bytes / 2, many);
  EXPECT_GT(many.PhaseSumSeconds(), few.PhaseSumSeconds());
}

// The model-parallel comparator's step: the sharded step with every one of
// the g GPUs owning an equal share of the lookups and optimizer bytes.
void ChargeModelParallel(const StepAccountant& accountant, int g,
                         Timeline& tl) {
  const BatchWork w = MakeWork();
  accountant.ChargeShardedHotStep(w, w.embedding_read_bytes / g,
                                  3 * w.touched_bytes / g, tl);
}

TEST_F(AccountantTest, ModelParallelUsesNvlinkOnly) {
  Timeline tl;
  ChargeModelParallel(accountant_, 4, tl);
  EXPECT_EQ(tl.pcie_bytes(), 0u);
  EXPECT_GT(tl.nvlink_bytes(), 0u);
  EXPECT_EQ(tl.network_bytes(), 0u);
  EXPECT_EQ(tl.cpu_busy_seconds(), 0.0);
}

TEST_F(AccountantTest, ModelParallelSingleGpuHasNoExchange) {
  CostModel cost(MakePaperServer(1));
  StepAccountant accountant(&cost);
  Timeline tl;
  ChargeModelParallel(accountant, 1, tl);
  EXPECT_EQ(tl.nvlink_bytes(), 0u);
}

TEST_F(AccountantTest, NvOptAllTablesOnGpuAvoidsCpu) {
  Timeline tl;
  BatchWork w = MakeWork(4);
  accountant_.ChargeNvOptStep(w, {true, true, true, true}, 16, 1024, tl);
  EXPECT_EQ(tl.cpu_busy_seconds(), 0.0);
  EXPECT_EQ(tl.pcie_bytes(), 0u);
}

TEST_F(AccountantTest, NvOptSpilledTablesPayBaselinePath) {
  Timeline tl;
  BatchWork w = MakeWork(4);
  accountant_.ChargeNvOptStep(w, {true, true, false, false}, 16, 1024, tl);
  EXPECT_GT(tl.cpu_busy_seconds(), 0.0);
  EXPECT_GT(tl.pcie_bytes(), 0u);
}

TEST_F(AccountantTest, MoreGpusShrinkGpuPhases) {
  CostModel cost1(MakePaperServer(1));
  StepAccountant acc1(&cost1);
  Timeline one;
  acc1.ChargeHotStep(MakeWork(), one);
  Timeline four;
  accountant_.ChargeHotStep(MakeWork(), four);
  EXPECT_LT(four.seconds(Phase::kEmbeddingForward),
            one.seconds(Phase::kEmbeddingForward));
}

// The pipelined baseline (--pipeline=overlap) prices each step at its
// lane split's overlapped wall: the CPU embedding lane runs beside the GPU
// dense lane, while transfers and the all-reduce stay serial.
TEST_F(AccountantTest, PipelinedBaselineShortensWall) {
  BatchWork w = MakeWork();
  Timeline serial;
  Timeline piped;
  accountant_.ChargeBaselineStep(w, serial);
  const StepAccountant::BaselineParts parts =
      accountant_.ChargeBaselineStepParts(w, piped);
  // Identical device work and traffic...
  EXPECT_EQ(piped.PhaseSumSeconds(), serial.PhaseSumSeconds());
  EXPECT_EQ(piped.pcie_bytes(), serial.pcie_bytes());
  EXPECT_EQ(piped.cpu_busy_seconds(), serial.cpu_busy_seconds());
  EXPECT_DOUBLE_EQ(parts.Total(), serial.PhaseSumSeconds());
  // ...but a shorter wall: overlap hides the smaller device path.
  EXPECT_LT(parts.Overlapped(), parts.Total());
  // The wall can never drop below either device path.
  EXPECT_GE(parts.Overlapped(), piped.cpu_busy_seconds());
  EXPECT_GE(parts.Overlapped(), piped.gpu_busy_seconds());
}

TEST_F(AccountantTest, PipelinedWallAtLeastSerialSegments) {
  Timeline tl;
  const StepAccountant::BaselineParts parts =
      accountant_.ChargeBaselineStepParts(MakeWork(), tl);
  const double serial_segments = tl.seconds(Phase::kCpuGpuTransfer) +
                                 tl.seconds(Phase::kAllReduce);
  EXPECT_GE(parts.Overlapped(), serial_segments);
}

TEST_F(AccountantTest, SmallBatchesUnderutilizeGpus) {
  BatchWork big = MakeWork();
  BatchWork small = MakeWork();
  small.batch_size = 64;  // same flops, worse occupancy
  Timeline tl_big;
  Timeline tl_small;
  accountant_.ChargeHotStep(big, tl_big);
  accountant_.ChargeHotStep(small, tl_small);
  EXPECT_GT(tl_small.seconds(Phase::kMlpForward),
            tl_big.seconds(Phase::kMlpForward));
}

}  // namespace
}  // namespace fae
