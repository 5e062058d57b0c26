#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "sim/device.h"
#include "sim/timeline.h"

namespace fae {
namespace {

TEST(DeviceTest, PaperServerMatchesTableII) {
  SystemSpec sys = MakePaperServer(4);
  EXPECT_EQ(sys.num_gpus, 4);
  EXPECT_EQ(sys.gpu.mem_capacity, 16ULL << 30);
  EXPECT_EQ(sys.cpu.mem_capacity, 768ULL << 30);
  EXPECT_EQ(sys.gpu.kind, DeviceSpec::Kind::kGpu);
  EXPECT_EQ(sys.cpu.kind, DeviceSpec::Kind::kCpu);
  EXPECT_EQ(sys.hot_embedding_budget, 256ULL << 20);
}

TEST(DeviceTest, GpuOutclassesCpu) {
  SystemSpec sys = MakePaperServer(1);
  EXPECT_GT(sys.gpu.peak_flops, 10 * sys.cpu.peak_flops);
  EXPECT_GT(sys.gpu.mem_bandwidth, 5 * sys.cpu.mem_bandwidth);
  EXPECT_GT(sys.nvlink.bandwidth, 5 * sys.pcie.bandwidth);
}

TEST(CostModelTest, ComputeTimeScalesWithFlops) {
  CostModel cm(MakePaperServer(1));
  const auto& gpu = cm.system().gpu;
  EXPECT_DOUBLE_EQ(cm.DenseComputeSeconds(2'000'000, gpu),
                   2 * cm.DenseComputeSeconds(1'000'000, gpu));
}

TEST(CostModelTest, CpuSlowerThanGpuForSameWork) {
  CostModel cm(MakePaperServer(1));
  EXPECT_GT(cm.DenseComputeSeconds(1'000'000'000, cm.system().cpu),
            cm.DenseComputeSeconds(1'000'000'000, cm.system().gpu));
  EXPECT_GT(cm.GatherSeconds(1 << 30, cm.system().cpu),
            cm.GatherSeconds(1 << 30, cm.system().gpu));
}

TEST(CostModelTest, GatherSlowerThanStream) {
  CostModel cm(MakePaperServer(1));
  EXPECT_GT(cm.GatherSeconds(1 << 20, cm.system().cpu),
            cm.StreamSeconds(1 << 20, cm.system().cpu));
}

TEST(CostModelTest, PcieTransferIncludesLatency) {
  CostModel cm(MakePaperServer(1));
  EXPECT_DOUBLE_EQ(cm.PcieTransferSeconds(0), 0.0);
  const double small = cm.PcieTransferSeconds(1);
  EXPECT_GE(small, cm.system().pcie.latency);
  const double big = cm.PcieTransferSeconds(1 << 30);
  EXPECT_GT(big, (1 << 30) / cm.system().pcie.bandwidth);
}

TEST(CostModelTest, AllReduceZeroForSingleGpu) {
  CostModel cm(MakePaperServer(1));
  EXPECT_EQ(cm.AllReduceSeconds(1 << 20), 0.0);
}

TEST(CostModelTest, AllReduceGrowsWithGpuCount) {
  CostModel cm2(MakePaperServer(2));
  CostModel cm4(MakePaperServer(4));
  EXPECT_GT(cm4.AllReduceSeconds(64 << 20), cm2.AllReduceSeconds(64 << 20));
}

TEST(CostModelTest, AverageGpuWattsBetweenIdleAndBusy) {
  CostModel cm(MakePaperServer(1));
  const double idle = cm.AverageGpuWatts(10.0, 0.0, 0.0);
  const double busy = cm.AverageGpuWatts(10.0, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(idle, cm.system().gpu.idle_watts);
  EXPECT_DOUBLE_EQ(busy, cm.system().gpu.busy_watts);
  const double half = cm.AverageGpuWatts(10.0, 5.0, 0.0);
  EXPECT_GT(half, idle);
  EXPECT_LT(half, busy);
}

TEST(CostModelTest, CommunicationTimeAddsPower) {
  CostModel cm(MakePaperServer(1));
  EXPECT_GT(cm.AverageGpuWatts(10.0, 5.0, 2.0),
            cm.AverageGpuWatts(10.0, 5.0, 0.0));
}

TEST(TimelineTest, ChargeAccumulates) {
  Timeline tl;
  tl.Charge(Phase::kMlpForward, 1.5);
  tl.Charge(Phase::kMlpForward, 0.5);
  tl.ChargeCpu(Phase::kOptimizerSparse, 2.0);
  tl.ChargeGpu(Phase::kMlpBackward, 3.0);
  EXPECT_DOUBLE_EQ(tl.seconds(Phase::kMlpForward), 2.0);
  EXPECT_DOUBLE_EQ(tl.PhaseSumSeconds(), 7.0);
  EXPECT_DOUBLE_EQ(tl.cpu_busy_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(tl.gpu_busy_seconds(), 3.0);
}

TEST(TimelineTest, ReportMentionsPhases) {
  Timeline tl;
  tl.Charge(Phase::kEmbeddingSync, 1.0);
  const std::string report = tl.Report();
  EXPECT_NE(report.find("embedding_sync"), std::string::npos);
}

TEST(TimelineTest, PhaseNamesUnique) {
  std::set<std::string_view> names;
  for (int i = 0; i < static_cast<int>(Phase::kNumPhases); ++i) {
    names.insert(PhaseName(static_cast<Phase>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(Phase::kNumPhases));
}

}  // namespace
}  // namespace fae
