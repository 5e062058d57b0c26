#ifndef FAE_TENSOR_DENSE_TILES_H_
#define FAE_TENSOR_DENSE_TILES_H_

// Private to the tensor layer, its kernel tests and bench/micro_kernels:
// the register-tiled dense kernels behind ops.h's MatMulInto,
// MatMulTransAInto, MatMulTransBInto and pairwise interaction, one build
// per instruction set.
//
// ops.cc writes the kernels once over a vector lane count and builds them
// up to three times: 4 lanes (16-byte vectors, SSE2 on baseline x86-64 and
// the only build elsewhere) and, on x86-64 with GCC, 8 lanes (32-byte
// vectors) compiled for AVX2 alone and 16 lanes (64-byte vectors) compiled
// for AVX-512F alone. All produce the same bits for every input (DESIGN.md
// §9). ops.h's entry points call the build DispatchedIsa() names, chosen
// once per process from the CPU; the tests and the bench reach every
// build through KernelsFor().
//
// FAE_DENSE_TILES_MAX_ISA_LEVEL compiles the wider builds out: 2 keeps all
// three, 1 keeps baseline and AVX2, 0 keeps baseline alone. Only the
// test-only CMake cache variable FAE_DENSE_TILES_MAX_ISA (src/
// CMakeLists.txt, avx512 by default) sets it, as a compile definition of
// fae_util and of everything that links it; it caps Crc32's builds
// (util/crc32.h) the same way.

#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

#ifndef FAE_DENSE_TILES_MAX_ISA_LEVEL
#error "FAE_DENSE_TILES_MAX_ISA_LEVEL is set by CMake (FAE_DENSE_TILES_MAX_ISA)"
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define FAE_DENSE_TILES_AVX2 (FAE_DENSE_TILES_MAX_ISA_LEVEL >= 1)
#define FAE_DENSE_TILES_AVX512 (FAE_DENSE_TILES_MAX_ISA_LEVEL >= 2)
#else
#define FAE_DENSE_TILES_AVX2 0
#define FAE_DENSE_TILES_AVX512 0
#endif

namespace fae {
namespace tiles {

/// The builds, narrowest first.
enum class Isa { kBaseline, kAvx2, kAvx512 };

/// "baseline", "avx2" or "avx512".
const char* IsaName(Isa isa);

/// kBaseline always; a wider build when this binary has it and the CPU
/// (and OS) support its instructions.
bool IsaSupported(Isa isa);

/// The build ops.h's kernels run: the widest one supported. Resolved on
/// first use and fixed for the life of the process.
Isa DispatchedIsa();

/// The five kernels of one build, with ops.h's signatures and contracts.
struct Kernels {
  void (*mat_mul)(Tensor& c, MatView a, const Tensor& b, ThreadPool* pool);
  void (*mat_mul_trans_a)(Tensor& c, MatView a, const Tensor& b,
                          ThreadPool* pool);
  void (*mat_mul_trans_b)(Tensor& c, const Tensor& a, const Tensor& b,
                          ThreadPool* pool);
  void (*interaction)(Tensor& out, const std::vector<const Tensor*>& features,
                      ThreadPool* pool);
  void (*interaction_backward)(std::vector<Tensor>& grads,
                               const Tensor& grad_out,
                               const std::vector<const Tensor*>& features,
                               ThreadPool* pool);
};

/// The build for `isa`. Aborts unless IsaSupported(isa).
const Kernels& KernelsFor(Isa isa);

}  // namespace tiles
}  // namespace fae

#endif  // FAE_TENSOR_DENSE_TILES_H_
