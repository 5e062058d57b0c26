#ifndef FAE_STATS_SAMPLING_H_
#define FAE_STATS_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace fae {

/// Independently keeps each of {0,..,n-1} with probability `rate`.
/// This is the paper's Sparse Input Sampler (§III-A1): profile only
/// x% ≈ 5% of the training inputs.
std::vector<uint64_t> BernoulliSampleIndices(uint64_t n, double rate,
                                             Xoshiro256& rng);

/// Starting offsets for `num_chunks` random chunks of `chunk_len`
/// consecutive rows inside a table of `table_rows` rows. Used by the
/// Rand-Em Box (§III-A3): n = 35 samples of m = 1024 entries each.
/// Chunks are clamped to stay in-range; when the table is smaller than
/// one chunk a single offset 0 is returned.
std::vector<uint64_t> RandomChunkStarts(uint64_t table_rows,
                                        uint64_t chunk_len,
                                        uint64_t num_chunks, Xoshiro256& rng);

}  // namespace fae

#endif  // FAE_STATS_SAMPLING_H_
