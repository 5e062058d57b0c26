#include "util/crc32.h"

#include <array>

#if FAE_CRC32_PCLMUL
#include <immintrin.h>
#endif

#include "util/file_io.h"
#include "util/logging.h"

namespace fae {
namespace crc {
namespace {

// Slicing-by-8 tables: kTables[0] is the byte-at-a-time table for the
// reflected polynomial 0xEDB88320, and kTables[k][b] is kTables[0][b]
// carried through k more zero bytes. A byte that still has k bytes after
// it in an 8-byte step is looked up in table k, so one step is eight
// independent lookups instead of eight dependent ones.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

/// Little-endian u32 at `p`, assembled bytewise so the code is the same on
/// any host byte order and alignment (compilers fuse it into one load).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Advances the raw register `c` (the checksum before its final inversion)
/// over `n` bytes by slicing-by-8. Every build finishes its tail here.
uint32_t SlicingUpdate(uint32_t c, const unsigned char* p, size_t n) {
  const Tables& t = kTables;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

uint32_t Slicing8(const void* data, size_t n, uint32_t seed) {
  return ~SlicingUpdate(~seed, static_cast<const unsigned char*>(data), n);
}

#if FAE_CRC32_PCLMUL
// Fold constants in the bit-reflected domain of the fold: K(e) is
// x^e mod P(x), bit-reflected in 32 bits and shifted left by one. Folding a
// 128-bit lane forward by d bits multiplies its low (earlier) quadword by
// K(d + 32) and its high quadword by K(d - 32).
constexpr uint32_t Reflect32(uint32_t v) {
  uint32_t r = 0;
  for (int i = 0; i < 32; ++i) r |= ((v >> i) & 1u) << (31 - i);
  return r;
}

constexpr long long K(unsigned e) {
  uint64_t r = 1;
  for (unsigned i = 0; i < e; ++i) {
    r <<= 1;
    if (r >> 32) r ^= 0x104c11db7ull;  // P(x), unreflected
  }
  return static_cast<long long>(uint64_t{Reflect32(static_cast<uint32_t>(r))}
                                << 1);
}

/// K(e), evaluated at compile time.
template <unsigned e>
constexpr long long kK = K(e);

// The Barrett reduction's constants: P(x) and floor(x^64 / P(x)), each
// bit-reflected in 33 bits.
constexpr long long kPoly = 0x1db710641ll;
constexpr long long kMu = 0x1f7011641ll;
#endif

}  // namespace

#if FAE_CRC32_PCLMUL
// The 16-byte fold, compiled for PCLMULQDQ (with SSE2, the x86-64
// baseline) and reached only through CrcFor(Isa::kPclmul) after a CPU
// check. The pragma covers only the functions defined between push and
// pop.
#pragma GCC push_options
#pragma GCC target("pclmul")
namespace pclmul {

/// `x` carried forward by the distance `k` was built for (one product per
/// quadword); the caller adds the block that lands there.
inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Reduces a 128-bit remainder, 32 zero bits appended, to the raw 32-bit
/// register: a fold to 64 bits, one to 32, then Barrett.
uint32_t Reduce(__m128i x) {
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, _mm_set_epi64x(kK<96>, 0), 0x10),
                    _mm_srli_si128(x, 8));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32),
                           _mm_set_epi64x(0, kK<64>), 0x00),
      _mm_srli_si128(x, 4));
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), barrett, 0x00);
  return static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t), 4)));
}

uint32_t Update(uint32_t c, const unsigned char* p, size_t n) {
  // Below one four-lane step the tables are as fast.
  if (n < 64) return SlicingUpdate(c, p, n);
  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k64 = _mm_set_epi64x(kK<480>, kK<544>);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(Fold(x0, k64), Load(p));
    x1 = _mm_xor_si128(Fold(x1, k64), Load(p + 16));
    x2 = _mm_xor_si128(Fold(x2, k64), Load(p + 32));
    x3 = _mm_xor_si128(Fold(x3, k64), Load(p + 48));
  }
  const __m128i k16 = _mm_set_epi64x(kK<96>, kK<160>);
  __m128i x = _mm_xor_si128(Fold(x0, k16), x1);
  x = _mm_xor_si128(Fold(x, k16), x2);
  x = _mm_xor_si128(Fold(x, k16), x3);
  for (; n >= 16; p += 16, n -= 16) x = _mm_xor_si128(Fold(x, k16), Load(p));
  return SlicingUpdate(Reduce(x), p, n);
}

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  return ~Update(~seed, static_cast<const unsigned char*>(data), n);
}

}  // namespace pclmul
#pragma GCC pop_options
#endif

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kPclmul:
      return "pclmul";
    case Isa::kSlicing8:
      break;
  }
  return "slicing8";
}

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kSlicing8:
      return true;
    case Isa::kPclmul:
#if FAE_CRC32_PCLMUL
      __builtin_cpu_init();
      return __builtin_cpu_supports("pclmul");
#else
      return false;
#endif
  }
  return false;
}

Isa DispatchedIsa() {
  static const Isa isa =
      IsaSupported(Isa::kPclmul) ? Isa::kPclmul : Isa::kSlicing8;
  return isa;
}

Fn CrcFor(Isa isa) {
  FAE_CHECK(IsaSupported(isa)) << IsaName(isa) << " is not supported here";
#if FAE_CRC32_PCLMUL
  if (isa == Isa::kPclmul) return &pclmul::Crc32;
#endif
  return &Slicing8;
}

}  // namespace crc

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const crc::Fn fn = crc::CrcFor(crc::DispatchedIsa());
  return fn(data, n, seed);
}

}  // namespace fae
