// Reproduces Fig 8: reduction in profiling latency when the input dataset
// is sampled (5%) instead of fully scanned.
//
// Paper shape: 19x-55x lower latency (Taobao highest because each input
// carries up to 21 sub-inputs), total sampled time well under 200 s.
//
// Also reports the flat SoA layout's full-scan latency next to the seed
// AoS layout's (the "layout" column) — sampling and layout gains compose.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/seed_baseline.h"
#include "core/embedding_logger.h"
#include "stats/sampling.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "small"));
  // Enough inputs that the profiling pass dominates constant-time
  // allocation overheads (the paper profiles 10M-80M inputs).
  const size_t inputs = args.GetNonNegativeInt("inputs", 100000);
  const double rate = args.GetDouble("rate", 0.05);
  const int reps = static_cast<int>(args.GetPositiveInt("reps", 5));

  bench::PrintHeader("Fig 8: profiling latency, full scan vs 5% sample");
  std::printf("%-22s %12s %12s %12s %10s %10s\n", "workload", "full(seed)",
              "full(flat)", "sampled", "sampling", "layout");

  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    const std::vector<bench::SparseInput> aos =
        bench::MaterializeAos(dataset);
    std::vector<uint64_t> all_ids(dataset.size());
    for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
    Xoshiro256 rng(8);
    std::vector<uint64_t> sampled_ids =
        BernoulliSampleIndices(dataset.size(), rate, rng);

    double seed_s = 0.0;
    double full_s = 0.0;
    double sample_s = 0.0;
    for (int r = 0; r < reps; ++r) {
      Stopwatch watch;
      bench::SeedProfile(dataset.schema(), aos, all_ids);
      seed_s += watch.ElapsedSeconds();
      full_s += EmbeddingLogger::Profile(dataset, all_ids).seconds;
      sample_s += EmbeddingLogger::Profile(dataset, sampled_ids).seconds;
    }
    seed_s /= reps;
    full_s /= reps;
    sample_s /= reps;
    std::printf("%-22s %12s %12s %12s %9.1fx %9.1fx\n",
                std::string(WorkloadName(kind)).c_str(),
                HumanSeconds(seed_s).c_str(), HumanSeconds(full_s).c_str(),
                HumanSeconds(sample_s).c_str(),
                sample_s > 0 ? full_s / sample_s : 0.0,
                full_s > 0 ? seed_s / full_s : 0.0);
  }
  std::printf(
      "\nPaper reference: 19x-55x latency reduction; the expected sampling\n"
      "speedup is ~1/rate = %.0fx (Taobao exceeds it due to multi-lookup\n"
      "inputs' allocation effects at full scan). The layout column is the\n"
      "flat SoA streaming pass's gain over the seed AoS walk at full scan.\n",
      1.0 / rate);
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
