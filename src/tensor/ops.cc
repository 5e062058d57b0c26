#include "tensor/ops.h"

#include <algorithm>
#include <cstring>

#include "tensor/dense_tiles.h"
#include "tensor/kernels.h"
#include "util/logging.h"

#if FAE_DENSE_TILES_AVX512
// For the few 16-lane lane moves dense_tiles.inc writes as intrinsics.
// GCC's intrinsic functions carry their own target attributes, so
// including them here compiles nothing for AVX-512.
#include <immintrin.h>
#endif

namespace fae {
namespace tiles {
namespace {

/// Work below this many multiply-adds is not worth a trip through the
/// pool's queue (lock + wakeup costs more than the loop).
constexpr size_t kMinFlopsToParallelize = 1u << 16;

/// Runs `fn` over [0, n) — through the pool when the total work justifies
/// the dispatch, inline otherwise. All kernels below partition work by
/// *output row*, so chunks never write the same memory and results are
/// bit-identical at any thread count. Templated so the serial path never
/// materializes a std::function (which would heap-allocate per call).
template <typename Fn>
void RowParallel(ThreadPool* pool, size_t n, size_t flops, Fn&& fn) {
  if (pool != nullptr && flops >= kMinFlopsToParallelize) {
    pool->ParallelFor(n, fn);
  } else {
    fn(0, n);
  }
}

// -- What the tiled kernels of dense_tiles.inc share across builds.

/// A 16-byte float vector (GCC/Clang vector extension): SSE2 on baseline
/// x86-64, and the wider builds' vector for 4-column remainders.
typedef float V4 __attribute__((vector_size(16)));
/// A 32-byte float vector: the AVX2 build's, and the AVX-512 build's for
/// 8-column remainders. Only the wider builds touch it.
typedef float V8 __attribute__((vector_size(32)));

template <typename V>
constexpr size_t kLanesOf = sizeof(V) / sizeof(float);

// k is blocked so that a block of B and the A strips it meets stay in
// L1/L2 across the GEMM tiles of one block.
constexpr size_t kBlockK = 128;
// A * B^T walks B by rows; a block of 64 of them (16 KB at the workloads'
// k <= 64) stays in L1 while every row group of A passes over it.
constexpr size_t kBlockN = 64;

/// A as the GEMM loops read it: A(i, kk) = data[i * row_stride +
/// kk * k_stride]. Plain A has strides (k, 1); MatMulTransA reads its
/// operand's columns as rows, strides (1, m).
struct StridedA {
  const float* data;
  size_t row_stride;
  size_t k_stride;

  const float* at(size_t i, size_t kk) const {
    return data + i * row_stride + kk * k_stride;
  }
};

/// Column of pair (i, j), i < j, among an interaction row's pair columns:
/// pairs run i-major, so row i's block starts at PairCol(f, i, i + 1).
inline size_t PairCol(size_t f, size_t i, size_t j) {
  return i * (2 * f - i - 1) / 2 + (j - i - 1);
}

}  // namespace

// The 4-lane build: baseline code generation for the target.
namespace baseline {
using Vec = V4;
#include "tensor/dense_tiles.inc"
}  // namespace baseline

#if FAE_DENSE_TILES_AVX2
// The 8-lane build, compiled for AVX2 (never FMA: DESIGN.md §9) and
// reached only through KernelsFor(Isa::kAvx2) after a CPU check. The
// pragma covers only the functions defined between push and pop; the
// headers above, and the std:: templates they define, stay baseline.
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
using Vec = V8;
#include "tensor/dense_tiles.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

#if FAE_DENSE_TILES_AVX512
// The 16-lane build, compiled for AVX-512F alone, under the same rules as
// the AVX2 build. AVX-512F brings EVEX multiply-adds with it, so here too
// only -ffp-contract=off keeps every a * b + c rounded twice.
#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512 {
typedef float Vec __attribute__((vector_size(64)));
#include "tensor/dense_tiles.inc"
}  // namespace avx512
#pragma GCC pop_options

// The AVX-512 table. The three GEMMs run the AVX2 build's kernel
// (AVX-512F implies AVX2) on the classes of shapes where bench/micro_kernels
// measured a workload layer slower at 16 lanes, and their 16-lane forms on
// the rest; the choice reads only the operands' sizes. Compiled for the
// baseline target, so that neither build's kernel is inlined here.
namespace avx512_by_shape {
namespace {

/// The GEMM loop nest's 16-lane form needs a full 16-column vector and
/// an 8-row tile; with less (the workloads' n = 1 output layers, TBSM's
/// 3-row bottom weight gradient) its remainders ran slower than the
/// 8-lane tiles.
bool WideGemm(size_t m, size_t n) { return m >= 8 && n >= 16; }

void MatMul(Tensor& c, MatView a, const Tensor& b, ThreadPool* pool) {
  (WideGemm(a.rows, b.cols()) ? avx512::kKernels : avx2::kKernels)
      .mat_mul(c, a, b, pool);
}

void MatMulTransA(Tensor& c, MatView a, const Tensor& b, ThreadPool* pool) {
  (WideGemm(a.cols, b.cols()) ? avx512::kKernels : avx2::kKernels)
      .mat_mul_trans_a(c, a, b, pool);
}

/// Packed dot tiles need a full quad of k (k = 1, the output layers'
/// input gradient, ran slower packed).
void MatMulTransB(Tensor& c, const Tensor& a, const Tensor& b,
                  ThreadPool* pool) {
  (a.cols() >= 4 ? avx512::kKernels : avx2::kKernels)
      .mat_mul_trans_b(c, a, b, pool);
}

/// The interaction kernels run their 16-lane forms at every d.
const Kernels kKernels = {&MatMul, &MatMulTransA, &MatMulTransB,
                          &avx512::Interaction, &avx512::InteractionBackward};

}  // namespace
}  // namespace avx512_by_shape
#endif

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kBaseline:
      break;
  }
  return "baseline";
}

bool IsaSupported(Isa isa) {
  // __builtin_cpu_supports also checks that the OS saves the wide
  // registers (XCR0).
  switch (isa) {
    case Isa::kBaseline:
      return true;
    case Isa::kAvx2:
#if FAE_DENSE_TILES_AVX2
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kAvx512:
#if FAE_DENSE_TILES_AVX512
      // The AVX-512 table also runs AVX2 kernels (KernelsFor).
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

Isa DispatchedIsa() {
  static const Isa isa = IsaSupported(Isa::kAvx512) ? Isa::kAvx512
                         : IsaSupported(Isa::kAvx2) ? Isa::kAvx2
                                                    : Isa::kBaseline;
  return isa;
}

const Kernels& KernelsFor(Isa isa) {
  FAE_CHECK(IsaSupported(isa)) << IsaName(isa) << " is not supported here";
#if FAE_DENSE_TILES_AVX512
  if (isa == Isa::kAvx512) return avx512_by_shape::kKernels;
#endif
#if FAE_DENSE_TILES_AVX2
  if (isa == Isa::kAvx2) return avx2::kKernels;
#endif
  return baseline::kKernels;
}

namespace {

const Kernels& Dispatched() {
  static const Kernels& kernels = KernelsFor(DispatchedIsa());
  return kernels;
}

}  // namespace
}  // namespace tiles

const char* DenseKernelsName() {
  return tiles::IsaName(tiles::DispatchedIsa());
}

void MatMulInto(Tensor& c, MatView a, const Tensor& b, ThreadPool* pool) {
  tiles::Dispatched().mat_mul(c, a, b, pool);
}

void MatMulTransAInto(Tensor& c, MatView a, const Tensor& b,
                      ThreadPool* pool) {
  tiles::Dispatched().mat_mul_trans_a(c, a, b, pool);
}

void MatMulTransBInto(Tensor& c, const Tensor& a, const Tensor& b,
                      ThreadPool* pool) {
  tiles::Dispatched().mat_mul_trans_b(c, a, b, pool);
}

void AddBiasRowwise(Tensor& x, const Tensor& bias) {
  FAE_CHECK_EQ(bias.rows(), 1u);
  FAE_CHECK_EQ(bias.cols(), x.cols());
  const float* brow = bias.row(0);
  for (size_t r = 0; r < x.rows(); ++r) {
    kernels::Add(x.cols(), brow, x.row(r));
  }
}

void ColumnSumsInto(Tensor& out, const Tensor& x) {
  out.Resize(1, x.cols());
  out.SetZero();
  float* orow = out.row(0);
  for (size_t r = 0; r < x.rows(); ++r) {
    kernels::Add(x.cols(), x.row(r), orow);
  }
}

void ReluForwardInto(Tensor& y, const Tensor& x) {
  y.Resize(x.rows(), x.cols());
  const float* src = x.data();
  float* dst = y.data();
  for (size_t i = 0; i < x.numel(); ++i) {
    dst[i] = std::max(0.0f, src[i]);
  }
}

void ReluBackwardInPlace(Tensor& grad, const Tensor& x) {
  FAE_CHECK(grad.SameShape(x));
  float* g = grad.data();
  const float* xs = x.data();
  const size_t n = grad.numel();
  // A select instead of a branch, so the loop vectorizes. It zeroes
  // exactly where `x <= 0` holds: a NaN x compares false and keeps its
  // gradient (`x > 0 ? g : 0` would zero it).
  for (size_t i = 0; i < n; ++i) {
    g[i] = (xs[i] <= 0.0f) ? 0.0f : g[i];
  }
}

void ConcatColsInto(Tensor& out, const std::vector<const Tensor*>& blocks) {
  FAE_CHECK(!blocks.empty());
  const size_t rows = blocks[0]->rows();
  size_t total_cols = 0;
  for (const Tensor* b : blocks) {
    FAE_CHECK_EQ(b->rows(), rows);
    total_cols += b->cols();
  }
  out.Resize(rows, total_cols);
  for (size_t r = 0; r < rows; ++r) {
    float* orow = out.row(r);
    size_t offset = 0;
    for (const Tensor* b : blocks) {
      const float* brow = b->row(r);
      std::copy(brow, brow + b->cols(), orow + offset);
      offset += b->cols();
    }
  }
}

void SplitColsInto(const std::vector<Tensor*>& outs, const Tensor& grad,
                   const std::vector<size_t>& widths) {
  FAE_CHECK_EQ(outs.size(), widths.size());
  size_t total = 0;
  for (size_t w : widths) total += w;
  FAE_CHECK_EQ(total, grad.cols());
  size_t offset = 0;
  for (size_t bi = 0; bi < widths.size(); ++bi) {
    const size_t w = widths[bi];
    Tensor& block = *outs[bi];
    block.Resize(grad.rows(), w);
    for (size_t r = 0; r < grad.rows(); ++r) {
      const float* grow = grad.row(r) + offset;
      std::copy(grow, grow + w, block.row(r));
    }
    offset += w;
  }
}

void PairwiseDotInteractionInto(Tensor& out,
                                const std::vector<const Tensor*>& features,
                                ThreadPool* pool) {
  tiles::Dispatched().interaction(out, features, pool);
}

void PairwiseDotInteractionBackwardInto(
    std::vector<Tensor>& grads, const Tensor& grad_out,
    const std::vector<const Tensor*>& features, ThreadPool* pool) {
  tiles::Dispatched().interaction_backward(grads, grad_out, features, pool);
}

}  // namespace fae
