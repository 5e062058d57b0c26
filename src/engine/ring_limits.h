#ifndef FAE_ENGINE_RING_LIMITS_H_
#define FAE_ENGINE_RING_LIMITS_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/statusor.h"
#include "util/string_util.h"

namespace fae {

/// Shared bounds for every batch-granular ring or window in the engine:
/// the staging ring (--pipeline-depth) and the LookaheadCache's oracle
/// window (--cache-lookahead). One definition so
/// the CLI, the Trainer, and the components themselves agree on what a
/// sane depth is — PR 5 fixed a negative --pipeline-depth wrapping through
/// size_t into a huge allocation; that validation now lives here for every
/// such knob instead of being re-derived per flag.
inline constexpr size_t kMinRingDepth = 1;
/// Backstop against absurd allocations: every staging slot owns a
/// FlatDataset workspace and every window slot a per-batch row-id list, so
/// a depth beyond this is a typo, not a configuration.
inline constexpr size_t kMaxRingDepth = size_t{1} << 20;

/// Validates a possibly-signed user- or caller-supplied depth. Values < 1
/// error instead of wrapping through size_t; values beyond kMaxRingDepth
/// error instead of allocating.
inline StatusOr<size_t> ValidateRingDepth(long long value,
                                          std::string_view what) {
  const std::string name(what);
  if (value < static_cast<long long>(kMinRingDepth)) {
    return Status::InvalidArgument(
        StrFormat("%s must be >= 1 (got %lld)", name.c_str(), value));
  }
  if (static_cast<unsigned long long>(value) > kMaxRingDepth) {
    return Status::InvalidArgument(StrFormat(
        "%s must be <= %llu (got %lld)", name.c_str(),
        static_cast<unsigned long long>(kMaxRingDepth), value));
  }
  return static_cast<size_t>(value);
}

/// Clamp for internal construction sites that promise a usable ring no
/// matter what (the staging ring's documented "clamped to >= 1").
inline size_t ClampRingDepth(size_t depth) {
  if (depth < kMinRingDepth) return kMinRingDepth;
  if (depth > kMaxRingDepth) return kMaxRingDepth;
  return depth;
}

}  // namespace fae

#endif  // FAE_ENGINE_RING_LIMITS_H_
