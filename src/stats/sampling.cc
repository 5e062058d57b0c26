#include "stats/sampling.h"

#include "util/logging.h"

namespace fae {

std::vector<uint64_t> BernoulliSampleIndices(uint64_t n, double rate,
                                             Xoshiro256& rng) {
  FAE_CHECK_GE(rate, 0.0);
  FAE_CHECK_LE(rate, 1.0);
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(static_cast<double>(n) * rate * 1.1) + 16);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.NextBernoulli(rate)) out.push_back(i);
  }
  return out;
}

std::vector<uint64_t> RandomChunkStarts(uint64_t table_rows,
                                        uint64_t chunk_len,
                                        uint64_t num_chunks,
                                        Xoshiro256& rng) {
  FAE_CHECK_GE(chunk_len, 1u);
  std::vector<uint64_t> starts;
  if (table_rows <= chunk_len) {
    starts.push_back(0);
    return starts;
  }
  starts.reserve(num_chunks);
  const uint64_t max_start = table_rows - chunk_len;
  for (uint64_t i = 0; i < num_chunks; ++i) {
    starts.push_back(rng.NextBounded(max_start + 1));
  }
  return starts;
}

}  // namespace fae
