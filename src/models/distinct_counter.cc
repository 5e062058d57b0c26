#include "models/distinct_counter.h"

#include <bit>

namespace fae {
namespace {

// Marks a free slot. The id with this value is counted on the side, so
// every u32 row id stays representable.
constexpr uint32_t kEmpty = UINT32_MAX;

}  // namespace

size_t DistinctCounter::Count(std::span<const uint32_t> ids) {
  if (ids.empty()) return 0;
  // Load factor at most 1/2 keeps linear probes short.
  const int bits = std::bit_width(2 * ids.size() - 1);
  const size_t mask = (size_t{1} << bits) - 1;
  slots_.assign(mask + 1, kEmpty);
  size_t distinct = 0;
  bool saw_empty_id = false;
  for (const uint32_t id : ids) {
    if (id == kEmpty) {
      saw_empty_id = true;
      continue;
    }
    // Fibonacci hashing: the top bits of a golden-ratio product spread
    // consecutive (popular, low-numbered) ids across the table.
    size_t h = static_cast<size_t>((id * 0x9e3779b97f4a7c15ull) >> (64 - bits));
    for (;;) {
      const uint32_t s = slots_[h];
      if (s == id) break;
      if (s == kEmpty) {
        slots_[h] = id;
        ++distinct;
        break;
      }
      h = (h + 1) & mask;
    }
  }
  return distinct + (saw_empty_id ? 1 : 0);
}

}  // namespace fae
