#ifndef FAE_TESTS_ENGINE_RESUME_GOLDEN_H_
#define FAE_TESTS_ENGINE_RESUME_GOLDEN_H_

// The golden resume property over both shapes of checkpoint chain
// (engine/checkpoint.h): a run that saves periodically dies at an injected
// crash, and a fresh model resumed from what it saved must reproduce the
// uninterrupted run. CrashAndResume resumes once from the whole chain
// (base + deltas) and once from the base alone (the same crash again,
// with its deltas deleted); the callers compare both with the
// uninterrupted run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/checkpoint.h"
#include "engine/trainer.h"
#include "sim/fault_injector.h"
#include "util/file_io.h"

namespace fae::test {

/// Trains a fresh model, initialized from `model_seed`, under `options`.
using TrainFn = std::function<StatusOr<TrainReport>(
    const TrainOptions& options, uint64_t model_seed)>;

struct ResumeRuns {
  TrainReport crashed;     // the run the crash interrupted
  TrainReport from_chain;  // resumed from base + deltas
  TrainReport from_base;   // resumed from the base alone
};

/// Removes every file of the chain at `path`.
inline void RemoveChain(const std::string& path) {
  const std::vector<std::string> files = *CheckpointIo::ChainFiles(path);
  for (const std::string& file : files) (void)RemoveFile(file);
}

/// Deletes the deltas of the chain at `path`, keeping its base.
inline void DropDeltas(const std::string& path) {
  const std::vector<std::string> files = *CheckpointIo::ChainFiles(path);
  for (const std::string& file : files) {
    if (file != path) (void)RemoveFile(file);
  }
}

/// Runs `options` with a save every `every_steps` into the chain at
/// `path` until `crash_plan` stops it, resumes from the chain, then does
/// the same again from the base alone. Checks that the chain held deltas
/// and that each resume applied what it should; the caller checks the
/// resumed reports against the uninterrupted run.
inline ResumeRuns CrashAndResume(const TrainOptions& options,
                                 const std::string& path,
                                 uint64_t every_steps,
                                 const std::string& crash_plan,
                                 const TrainFn& train) {
  TrainOptions saving = options;
  saving.checkpoint.path = path;
  saving.checkpoint.every_steps = every_steps;
  auto run = [&](const TrainOptions& opt, uint64_t seed) {
    StatusOr<TrainReport> report = train(opt, seed);
    if (!report.ok()) {
      ADD_FAILURE() << report.status().ToString();
      return TrainReport{};
    }
    return *std::move(report);
  };
  auto crash = [&] {
    RemoveChain(path);
    StatusOr<FaultInjector> faults = FaultInjector::Parse(crash_plan);
    EXPECT_TRUE(faults.ok()) << faults.status().ToString();
    TrainOptions opt = saving;
    opt.fault_injector = &*faults;
    TrainReport report = run(opt, 5);
    EXPECT_TRUE(report.interrupted);
    return report;
  };
  // A different init seed: every weight must come from the chain. The
  // resumed run keeps saving, so its first save starts a new chain.
  TrainOptions resuming = saving;
  resuming.checkpoint.resume = true;

  ResumeRuns runs;
  runs.crashed = crash();
  runs.from_chain = run(resuming, 999);
  (void)crash();
  DropDeltas(path);
  runs.from_base = run(resuming, 999);
  RemoveChain(path);

  EXPECT_GT(runs.crashed.checkpoint_base_saves, 0u);
  EXPECT_GT(runs.crashed.checkpoint_delta_saves, 0u)
      << "the chain held no delta";
  EXPECT_TRUE(runs.from_chain.resumed);
  EXPECT_GT(runs.from_chain.resumed_deltas, 0u);
  EXPECT_TRUE(runs.from_chain.resume_damage.ok())
      << runs.from_chain.resume_damage.ToString();
  EXPECT_TRUE(runs.from_base.resumed);
  EXPECT_EQ(runs.from_base.resumed_deltas, 0u);
  EXPECT_LT(runs.from_base.resumed_at, runs.from_chain.resumed_at);
  // The first save after a resume is a base.
  EXPECT_GT(runs.from_chain.checkpoint_base_saves, 0u);
  return runs;
}

}  // namespace fae::test

#endif  // FAE_TESTS_ENGINE_RESUME_GOLDEN_H_
