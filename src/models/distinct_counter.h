#ifndef FAE_MODELS_DISTINCT_COUNTER_H_
#define FAE_MODELS_DISTINCT_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fae {

/// Counts the distinct row ids of one table's lookups in a batch — the
/// `touched_rows` of `BatchWork` — without sorting them. A linear-probing
/// hash set sized to the batch (a power of two at least twice the lookup
/// count, never anything sized by table rows) is cleared and refilled per
/// call; its storage is kept, so once it has seen the largest batch the
/// count allocates nothing. Not safe for concurrent use.
class DistinctCounter {
 public:
  size_t Count(std::span<const uint32_t> ids);

 private:
  std::vector<uint32_t> slots_;  // kEmpty or a stored id
};

}  // namespace fae

#endif  // FAE_MODELS_DISTINCT_COUNTER_H_
