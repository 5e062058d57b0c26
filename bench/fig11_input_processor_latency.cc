// Reproduces Fig 11: latency of the input processor's hot/cold
// classification across access thresholds, parallelized over CPU cores.
//
// Paper shape: lower thresholds classify more entries as hot but the pass
// remains a bounded single scan (max ~110 s on their 16-core machine for
// the full datasets; seconds here at reduced scale).
//
// Also reports the seed AoS layout's classification latency next to the
// flat SoA streaming pass's (the "layout" column).

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/seed_baseline.h"
#include "core/embedding_classifier.h"
#include "core/embedding_logger.h"
#include "core/input_processor.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fae {
namespace {

void Run(const bench::Args& args) {
  const DatasetScale scale =
      bench::ParseScale(args.GetString("scale", "small"));
  const size_t inputs = args.GetNonNegativeInt("inputs", 30000);
  const size_t threads = args.GetPositiveInt("threads", 4);

  bench::PrintHeader("Fig 11: input-processor classification latency");
  std::printf("%zu worker threads\n\n", threads);
  std::printf("%-22s %-12s %12s %12s %10s %12s\n", "workload", "threshold",
              "seed", "flat", "layout", "hot-inputs%");

  for (WorkloadKind kind : bench::AllWorkloads()) {
    Dataset dataset = bench::MakeWorkloadDataset(kind, scale, inputs);
    const std::vector<bench::SparseInput> aos =
        bench::MaterializeAos(dataset);
    std::vector<uint64_t> all_ids(dataset.size());
    for (size_t i = 0; i < all_ids.size(); ++i) all_ids[i] = i;
    AccessProfile profile =
        EmbeddingLogger::Profile(dataset, all_ids).profile;
    InputProcessor processor(threads);

    for (double t : {1e-2, 1e-3, 1e-4, 1e-5}) {
      const uint64_t h_zt = std::max<uint64_t>(
          1,
          static_cast<uint64_t>(t * static_cast<double>(dataset.size())));
      HotSet hot = EmbeddingClassifier::Classify(
          profile, dataset.schema(), h_zt, bench::LargeTableCutoff(scale));
      std::vector<uint64_t> seed_hot;
      std::vector<uint64_t> seed_cold;
      Stopwatch watch;
      bench::SeedClassify(aos, hot, all_ids, &seed_hot, &seed_cold);
      const double seed_s = watch.ElapsedSeconds();
      ProcessedInputs out = processor.Classify(dataset, hot, all_ids);
      std::printf("%-22s %-12.0e %12s %12s %9.1fx %11.1f%%\n",
                  std::string(WorkloadName(kind)).c_str(), t,
                  HumanSeconds(seed_s).c_str(),
                  HumanSeconds(out.seconds).c_str(),
                  out.seconds > 0 ? seed_s / out.seconds : 0.0,
                  100.0 * out.HotFraction());
    }
  }
  std::printf(
      "\nPaper reference: even for very low thresholds the classification\n"
      "pass finishes within ~110 s (full datasets, 16 cores). The layout\n"
      "column is the flat SoA streaming pass's gain over the seed AoS walk.\n");
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::Run(args);
  return 0;
}
