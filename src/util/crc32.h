#ifndef FAE_UTIL_CRC32_H_
#define FAE_UTIL_CRC32_H_

// Private to util/file_io, its tests and bench/micro_kernels: the builds
// behind Crc32 (file_io.h), one per instruction set.
//
// Slicing-by-8 (eight 256-entry tables, any CPU) is the portable build.
// On x86-64 with GCC a fold by carry-less multiply joins it (Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel 2009): PCLMULQDQ folds four 16-byte lanes at a time.
// The polynomial is the same, so every build returns the same checksum for
// every input. Crc32 calls the build DispatchedIsa() names, chosen once
// per process from the CPU; the tests and the bench reach every build
// through CrcFor().
//
// The test-only cap on the dense tiles (FAE_DENSE_TILES_MAX_ISA_LEVEL, set
// by the CMake cache variable FAE_DENSE_TILES_MAX_ISA) caps these builds
// too: 0 keeps slicing-by-8 alone.

#include <cstddef>
#include <cstdint>

#ifndef FAE_DENSE_TILES_MAX_ISA_LEVEL
#error "FAE_DENSE_TILES_MAX_ISA_LEVEL is set by CMake (FAE_DENSE_TILES_MAX_ISA)"
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define FAE_CRC32_PCLMUL (FAE_DENSE_TILES_MAX_ISA_LEVEL >= 1)
#else
#define FAE_CRC32_PCLMUL 0
#endif

namespace fae {
namespace crc {

/// The builds, narrowest first.
enum class Isa { kSlicing8, kPclmul };

/// "slicing8" or "pclmul".
const char* IsaName(Isa isa);

/// kSlicing8 always; the fold when this binary has it and the CPU supports
/// PCLMULQDQ.
bool IsaSupported(Isa isa);

/// The build Crc32 runs: the widest one supported. Resolved on first use
/// and fixed for the life of the process.
Isa DispatchedIsa();

/// Crc32's signature and contract.
using Fn = uint32_t (*)(const void* data, size_t n, uint32_t seed);

/// The build for `isa`. Aborts unless IsaSupported(isa).
Fn CrcFor(Isa isa);

}  // namespace crc
}  // namespace fae

#endif  // FAE_UTIL_CRC32_H_
