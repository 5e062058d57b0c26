#ifndef FAE_UTIL_HALF_H_
#define FAE_UTIL_HALF_H_

#include <cstdint>

namespace fae {

/// IEEE 754 binary16 conversions, implemented bit-level (no hardware
/// dependency). Used to emulate fp16 embedding storage: the NvOPT-style
/// comparator stores tables at half precision, and the paper argues such
/// representation changes "require accuracy revalidation" (§V) — which
/// Fp16EmbeddingsTest performs.

/// Round-to-nearest-even conversion. Overflow becomes infinity; NaN is
/// preserved (as a quiet NaN); subnormal halves are produced for tiny
/// inputs.
uint16_t FloatToHalf(float value);

/// Exact widening conversion (every binary16 value is representable in
/// binary32). Inline: this sits on the dequantizing-gather hot path
/// (tensor/kernels.h DequantAddF16), where a call per element would
/// dominate the loop.
inline float HalfToFloat(uint16_t half) {
  const auto bits_to_float = [](uint32_t u) {
    float f;
    __builtin_memcpy(&f, &u, sizeof(f));
    return f;
  };
  const uint32_t sign = static_cast<uint32_t>(half & 0x8000u) << 16;
  const uint32_t exp16 = (half >> 10) & 0x1fu;
  uint32_t mant = half & 0x3ffu;

  if (exp16 == 0x1fu) {  // inf / nan
    return bits_to_float(sign | 0x7f800000u | (mant << 13));
  }
  if (exp16 == 0) {
    if (mant == 0) return bits_to_float(sign);  // signed zero
    // Subnormal half: normalize.
    int exp = -14;
    while ((mant & 0x400u) == 0) {
      mant <<= 1;
      --exp;
    }
    mant &= 0x3ffu;
    const uint32_t exp32 = static_cast<uint32_t>(exp + 127) << 23;
    return bits_to_float(sign | exp32 | (mant << 13));
  }
  const uint32_t exp32 = (exp16 + 127 - 15) << 23;
  return bits_to_float(sign | exp32 | (mant << 13));
}

/// Convenience: the value after a float -> half -> float round trip, i.e.
/// what fp16 storage preserves of `value`.
inline float QuantizeToHalf(float value) {
  return HalfToFloat(FloatToHalf(value));
}

}  // namespace fae

#endif  // FAE_UTIL_HALF_H_
