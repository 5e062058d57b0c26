// Steady-state allocation freedom of the training step: after a few warm-up
// steps have sized every workspace, the trainer's DLRM step
// (StepExecutor::MathStep: forward, backward, fused sparse scatter+update,
// dense SGD, metrics) and its eval forward must perform zero heap
// allocations. Enforced with a global operator new hook, which is why this
// test lives in its own binary (fae_zero_alloc_test) — the hook is
// process-wide.

#include <atomic>
#include <execinfo.h>
#include <unistd.h>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "data/batch_view.h"
#include "data/synthetic.h"
#include "engine/metrics.h"
#include "engine/staleness_tracker.h"
#include "engine/step_executor.h"
#include "models/factory.h"

namespace {
std::atomic<bool> g_track{false};
std::atomic<uint64_t> g_allocs{0};

void* TrackedAlloc(std::size_t n) {
  if (g_track.load(std::memory_order_relaxed)) {
    [[maybe_unused]] uint64_t c =
        g_allocs.fetch_add(1, std::memory_order_relaxed);
#ifdef FAE_ZERO_ALLOC_TRACE
    if (c < 16) {
      void* frames[16];
      int depth = backtrace(frames, 16);
      backtrace_symbols_fd(frames, depth, 2);
      const char nl[] = "----\n";
      (void)!write(2, nl, sizeof(nl) - 1);
    }
#endif
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return TrackedAlloc(n); }
void* operator new[](std::size_t n) { return TrackedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fae {
namespace {

TEST(ZeroAllocTest, FusedDlrmStepIsAllocationFreeAfterWarmup) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes allocate behind the hook";
#endif
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny);
  const Dataset dataset = SyntheticGenerator(schema, {.seed = 41}).Generate(64);
  std::vector<uint64_t> ids(64);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const FlatDataset gathered = dataset.flat().Gather(ids);
  // 64 samples in batches of 16: every batch has the same size, so the
  // workspaces sized by the warm-up fit every later step exactly.
  const std::vector<BatchView> views = MakeBatchViews(gathered, 16, false);

  std::unique_ptr<RecModel> model =
      MakeModel(schema, /*full_size=*/false, /*seed=*/1);
  std::vector<EmbeddingTable*> tables;
  for (EmbeddingTable& t : model->tables()) tables.push_back(&t);

  StepExecutor exec(model.get(), StepExecutor::Options{});
  RunningMetric metric, window;
  auto step = [&](const BatchView& view) {
    exec.MathStep(view, tables, metric, window);
  };

  // Warm-up: size every workspace.
  for (int rep = 0; rep < 2; ++rep) {
    for (const BatchView& view : views) step(view);
  }

  g_allocs.store(0);
  g_track.store(true);
  for (int rep = 0; rep < 3; ++rep) {
    for (const BatchView& view : views) step(view);
  }
  g_track.store(false);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the fused steady-state step touched the heap";
}

// Evaluation runs the training forward on the model's own tables, so it
// shares the step's workspaces: with training steps interleaved, as the
// trainer interleaves them, a warm eval forward must not touch the heap
// either. Only EvalLogits is tracked; Evaluate also collects scores for the
// AUC, which allocates by design.
TEST(ZeroAllocTest, DlrmEvalLogitsIsAllocationFreeAfterWarmup) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes allocate behind the hook";
#endif
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny);
  const Dataset dataset = SyntheticGenerator(schema, {.seed = 53}).Generate(96);
  std::vector<uint64_t> train_ids(64);
  std::vector<uint64_t> eval_ids(32);
  for (size_t i = 0; i < train_ids.size(); ++i) train_ids[i] = i;
  for (size_t i = 0; i < eval_ids.size(); ++i) eval_ids[i] = 64 + i;
  const FlatDataset train = dataset.flat().Gather(train_ids);
  const FlatDataset eval = dataset.flat().Gather(eval_ids);
  // Eval batches are larger than training batches: the workspaces must
  // keep the eval shapes' capacity across the steps in between.
  const std::vector<BatchView> train_views = MakeBatchViews(train, 16, false);
  const std::vector<BatchView> eval_views = MakeBatchViews(eval, 32, false);

  std::unique_ptr<RecModel> model =
      MakeModel(schema, /*full_size=*/false, /*seed=*/4);
  std::vector<EmbeddingTable*> tables;
  for (EmbeddingTable& t : model->tables()) tables.push_back(&t);

  StepExecutor exec(model.get(), StepExecutor::Options{});
  RunningMetric metric, window;
  auto train_then_eval = [&](bool track) {
    for (const BatchView& view : train_views) {
      exec.MathStep(view, tables, metric, window);
    }
    for (const BatchView& view : eval_views) {
      g_track.store(track);
      model->EvalLogits(view);
      g_track.store(false);
    }
  };

  for (int rep = 0; rep < 2; ++rep) train_then_eval(/*track=*/false);

  g_allocs.store(0);
  for (int rep = 0; rep < 3; ++rep) train_then_eval(/*track=*/true);
  EXPECT_EQ(g_allocs.load(), 0u) << "the warm eval forward touched the heap";
}

// Same property with quantized cold storage: once a full sync interval has
// staged the touched cold rows and FlushStaged has sized the staging
// buffers, the dequantize-gather / stage / update / requantize cycle must
// not touch the heap either (the --cold-precision path rides the same
// fused step).
TEST(ZeroAllocTest, QuantizedFusedStepIsAllocationFreeAfterWarmup) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes allocate behind the hook";
#endif
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny);
  const Dataset dataset = SyntheticGenerator(schema, {.seed = 43}).Generate(64);
  std::vector<uint64_t> ids(64);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const FlatDataset gathered = dataset.flat().Gather(ids);
  const std::vector<BatchView> views = MakeBatchViews(gathered, 16, false);

  std::unique_ptr<RecModel> model =
      MakeModel(schema, /*full_size=*/false, /*seed=*/2);
  std::vector<EmbeddingTable*> tables;
  for (EmbeddingTable& t : model->tables()) {
    // Every 4th row hot, the rest int8-quantized — each step then gathers
    // and updates a real mix of resident and cold rows.
    std::vector<uint8_t> mask(t.rows(), 0);
    for (uint64_t r = 0; r < t.rows(); r += 4) mask[r] = 1;
    t.CompressCold(mask, ColdPrecision::kInt8);
    tables.push_back(&t);
  }

  StepExecutor exec(model.get(), StepExecutor::Options{});
  RunningMetric metric, window;
  // One "sync interval" = the four batches, then the cold-row writeback.
  auto interval = [&] {
    for (const BatchView& view : views) {
      exec.MathStep(view, tables, metric, window);
    }
    for (EmbeddingTable* t : tables) t->FlushStaged();
  };

  // Warm-up: sizes the step workspaces and grows every staging buffer to
  // the interval's full staged set.
  for (int rep = 0; rep < 2; ++rep) interval();

  g_allocs.store(0);
  g_track.store(true);
  for (int rep = 0; rep < 3; ++rep) interval();
  g_track.store(false);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the quantized steady-state step touched the heap";
}

// Same property with the staleness tracker riding the fused step: Init
// preallocates all per-row state, BeginVisit/RecordUpdate are plain array
// walks, and the skip-verdict scratch inside SparseSgd is sized by the
// warm-up — so stale-update skipping adds zero steady-state allocations.
TEST(ZeroAllocTest, StaleSkipFusedStepIsAllocationFreeAfterWarmup) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes allocate behind the hook";
#endif
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny);
  const Dataset dataset = SyntheticGenerator(schema, {.seed = 47}).Generate(64);
  std::vector<uint64_t> ids(64);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const FlatDataset gathered = dataset.flat().Gather(ids);
  const std::vector<BatchView> views = MakeBatchViews(gathered, 16, false);

  std::unique_ptr<RecModel> model =
      MakeModel(schema, /*full_size=*/false, /*seed=*/3);
  std::vector<EmbeddingTable*> tables;
  std::vector<uint64_t> table_rows;
  for (EmbeddingTable& t : model->tables()) {
    tables.push_back(&t);
    table_rows.push_back(t.rows());
  }

  StalenessTracker tracker;
  // An aggressive threshold with min_visits 1: rows start freezing during
  // the warm-up, so the tracked reps exercise both the skip and the
  // measure paths of BeginVisit/RecordUpdate.
  tracker.Init(table_rows, {.threshold = 0.5, .min_visits = 1});

  StepExecutor exec(model.get(), StepExecutor::Options{});
  RunningMetric metric, window;
  // MathStep calls tracker.BeginStep itself.
  auto step = [&](const BatchView& view) {
    exec.MathStep(view, tables, metric, window, &tracker);
  };

  for (int rep = 0; rep < 2; ++rep) {
    for (const BatchView& view : views) step(view);
  }
  ASSERT_GT(tracker.total_skipped_rows(), 0u)
      << "warm-up froze no rows; the tracked reps would not cover the "
         "skip path";

  g_allocs.store(0);
  g_track.store(true);
  for (int rep = 0; rep < 3; ++rep) {
    for (const BatchView& view : views) step(view);
  }
  g_track.store(false);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "the stale-skip steady-state step touched the heap";
}

}  // namespace
}  // namespace fae
