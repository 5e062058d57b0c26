#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels.h"
#include "util/logging.h"

namespace fae {
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

// -- Register-tiled GEMM and interaction kernels ----------------------------
//
// Each kernel holds a tile of outputs in 16-byte vector registers (the
// GCC/Clang vector extension; SSE2 on baseline x86-64) and writes C once
// per tile and k-block instead of once per product. The
// tiles change which outputs are computed together, never the operations
// one output sees, so results are bitwise those of the scalar loops (see
// kernels.h and DESIGN.md §9 for the per-kernel argument).

typedef float V4 __attribute__((vector_size(16)));

inline V4 Load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(float* p, V4 v) { std::memcpy(p, &v, sizeof(v)); }

inline V4 Splat(float x) { return V4{x, x, x, x}; }

// GEMM tile: kTileRows rows x kTileVecs vectors of C (4 x 8 floats: eight
// accumulators plus two B vectors and one broadcast fit the sixteen SSE2
// registers). k is blocked so that a block of B and the A strips it meets
// stay in L1/L2 across the tiles of one block.
constexpr size_t kTileRows = 4;
constexpr size_t kTileVecs = 2;
constexpr size_t kBlockK = 128;
// A * B^T walks B by rows; a block of 64 of them (16 KB at the workloads'
// k <= 64) stays in L1 while every row pair of A passes over it.
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

/// C[R, 4V] at `c` = (first ? +0 : C) + sum over kk in [0, kb) of
/// A(r, kk) * B(kk, j), one product at a time in ascending kk — the same
/// sequence as the scalar `c += a * b` loop. `a`, `b` and `c` point at the
/// tile's first row and column of the k-block; B and C rows are `n` apart.
template <size_t R, size_t V>
void GemmTile(StridedA a, const float* b, float* c, size_t n, size_t kb,
              bool first) {
  V4 acc[R][V];
#pragma GCC unroll 8
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) {
      acc[r][v] = first ? V4{} : Load4(c + r * n + 4 * v);
    }
  }
  for (size_t kk = 0; kk < kb; ++kk) {
    V4 bv[V];
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) bv[v] = Load4(b + kk * n + 4 * v);
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
      const V4 av = Splat(*a.at(r, kk));
#pragma GCC unroll 8
      for (size_t v = 0; v < V; ++v) acc[r][v] += av * bv[v];
    }
  }
#pragma GCC unroll 8
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) Store4(c + r * n + 4 * v, acc[r][v]);
  }
}

/// One column of C over R rows: the same sequence as GemmTile, for the
/// n % 4 columns no vector covers.
template <size_t R>
void GemmColumn(StridedA a, const float* b, float* c, size_t n, size_t kb,
                bool first) {
  float acc[R];
#pragma GCC unroll 8
  for (size_t r = 0; r < R; ++r) acc[r] = first ? 0.0f : c[r * n];
  for (size_t kk = 0; kk < kb; ++kk) {
    const float bv = b[kk * n];
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) acc[r] += *a.at(r, kk) * bv;
  }
#pragma GCC unroll 8
  for (size_t r = 0; r < R; ++r) c[r * n] = acc[r];
}

/// Rows [i, i + R) of one k-block, across all n columns.
template <size_t R>
void GemmRowStrip(StridedA a, const float* b, float* c, size_t n, size_t kb,
                  bool first) {
  constexpr size_t kCols = 4 * kTileVecs;
  size_t j = 0;
  for (; j + kCols <= n; j += kCols) {
    GemmTile<R, kTileVecs>(a, b + j, c + j, n, kb, first);
  }
  for (; j + 4 <= n; j += 4) GemmTile<R, 1>(a, b + j, c + j, n, kb, first);
  for (; j < n; ++j) GemmColumn<R>(a, b + j, c + j, n, kb, first);
}

/// C rows [i0, i1) = A rows [i0, i1) * B[k, n], for MatMulInto and
/// MatMulTransAInto. Every C element is written by the first k-block and
/// re-read by later ones, so C needs a zero fill only when k == 0.
void GemmRows(StridedA a, const Tensor& b, size_t k, Tensor& c, size_t i0,
              size_t i1) {
  const size_t n = b.cols();
  if (k == 0) std::fill(c.row(i0), c.row(i1), 0.0f);
  for (size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const size_t kb = std::min(kBlockK, k - k0);
    const bool first = k0 == 0;
    const float* bk = b.row(k0);
    size_t i = i0;
    for (; i + kTileRows <= i1; i += kTileRows) {
      GemmRowStrip<kTileRows>({a.at(i, k0), a.row_stride, a.k_stride}, bk,
                              c.row(i), n, kb, first);
    }
    for (; i < i1; ++i) {
      GemmRowStrip<1>({a.at(i, k0), a.row_stride, a.k_stride}, bk, c.row(i),
                      n, kb, first);
    }
  }
}

/// Lane c of the result is ((s[c][0] + s[c][1]) + (s[c][2] + s[c][3])) +
/// tail[c] — kernels::Dot's final association, for four dot products at
/// once (a 4x4 transpose puts lane l of every s[c] into one vector).
inline V4 ReduceDot4(const V4 (&s)[4], V4 tail) {
  const V4 t0 = __builtin_shufflevector(s[0], s[1], 0, 4, 1, 5);
  const V4 t1 = __builtin_shufflevector(s[0], s[1], 2, 6, 3, 7);
  const V4 t2 = __builtin_shufflevector(s[2], s[3], 0, 4, 1, 5);
  const V4 t3 = __builtin_shufflevector(s[2], s[3], 2, 6, 3, 7);
  const V4 l0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  const V4 l1 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  const V4 l2 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  const V4 l3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  return ((l0 + l1) + (l2 + l3)) + tail;
}

/// out[r][0..3] = kernels::Dot(k, x[r], y[c]) for c < 4, bit for bit: one
/// vector accumulator per dot holds Dot's lanes s0..s3, and the k % 4 tail
/// runs across the four dots, each lane from +0 in ascending order.
/// Inlined by force: it runs once per four outputs, and at the workloads'
/// k <= 64 a call costs a noticeable share of the tile.
template <size_t R>
[[gnu::always_inline]] inline void DotTile(size_t k,
                                           const float* const (&x)[R],
                                           const float* const (&y)[4],
                                           float* const (&out)[R]) {
  V4 acc[R][4] = {};
  size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    V4 xv[R];
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) xv[r] = Load4(x[r] + kk);
#pragma GCC unroll 4
    for (size_t c = 0; c < 4; ++c) {
      const V4 yv = Load4(y[c] + kk);
#pragma GCC unroll 8
      for (size_t r = 0; r < R; ++r) acc[r][c] += xv[r] * yv;
    }
  }
  V4 tail[R] = {};
  for (; kk < k; ++kk) {
    const V4 yv = {y[0][kk], y[1][kk], y[2][kk], y[3][kk]};
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) tail[r] += Splat(x[r][kk]) * yv;
  }
#pragma GCC unroll 8
  for (size_t r = 0; r < R; ++r) Store4(out[r], ReduceDot4(acc[r], tail[r]));
}

/// C rows [i, i + R), columns [j0, j1) of A * B^T: C(i, j) =
/// kernels::Dot(k, A.row(i), B.row(j)), four columns per tile.
template <size_t R>
void DotRows(const Tensor& a, const Tensor& b, Tensor& c, size_t i,
             size_t j0, size_t j1) {
  const size_t k = a.cols();
  float* out[R];
  const float* x[R];
#pragma GCC unroll 8
  for (size_t r = 0; r < R; ++r) {
    x[r] = a.row(i + r);
    out[r] = c.row(i + r) + j0;
  }
  size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    const float* const y[4] = {b.row(j), b.row(j + 1), b.row(j + 2),
                               b.row(j + 3)};
    DotTile<R>(k, x, y, out);
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) out[r] += 4;
  }
  for (; j < j1; ++j) {
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
      *out[r]++ = kernels::Dot(k, x[r], b.row(j));
    }
  }
}

/// Column of pair (i, j), i < j, in an interaction row: pairs run
/// i-major, so row i's block starts at PairCol(f, i, i + 1).
inline size_t PairCol(size_t f, size_t i, size_t j) {
  return i * (2 * f - i - 1) / 2 + (j - i - 1);
}

/// Elements [e, e + 4V) of dL/df_x, for the X features x0..x0+X-1 of
/// sample row r:
///   grads[x] = sum over y != x, ascending, of g(x, y) * f_y,
/// from +0 — the order in which the pair loop (i ascending, then j) added
/// x's terms: every y < x arrived from pair (y, x) before x's own pairs.
/// The X features share each f_y load.
template <size_t X, size_t V>
void InteractionGradStrip(const std::vector<const Tensor*>& features,
                          const float* grow, size_t r, size_t x0, size_t e,
                          std::vector<Tensor>& grads) {
  const size_t f = features.size();
  V4 acc[X][V] = {};
  for (size_t y = 0; y < f; ++y) {
    const float* fy = features[y]->row(r) + e;
    V4 fv[V];
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) fv[v] = Load4(fy + 4 * v);
#pragma GCC unroll 2
    for (size_t xi = 0; xi < X; ++xi) {
      const size_t x = x0 + xi;
      if (y == x) continue;
      const V4 g = Splat(grow[y < x ? PairCol(f, y, x) : PairCol(f, x, y)]);
#pragma GCC unroll 8
      for (size_t v = 0; v < V; ++v) acc[xi][v] += g * fv[v];
    }
  }
#pragma GCC unroll 2
  for (size_t xi = 0; xi < X; ++xi) {
    float* out = grads[x0 + xi].row(r) + e;
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) Store4(out + 4 * v, acc[xi][v]);
  }
}

/// Row r of dL/df_x for x in [x0, x0 + X): strips of four vectors across
/// d, then single vectors, then the d % 4 tail elements with scalar
/// accumulators in the same order.
template <size_t X>
void InteractionGrad(const std::vector<const Tensor*>& features,
                     const float* grow, size_t r, size_t x0,
                     std::vector<Tensor>& grads) {
  const size_t f = features.size();
  const size_t d = features[0]->cols();
  size_t e = 0;
  for (; e + 16 <= d; e += 16) {
    InteractionGradStrip<X, 4>(features, grow, r, x0, e, grads);
  }
  for (; e + 4 <= d; e += 4) {
    InteractionGradStrip<X, 1>(features, grow, r, x0, e, grads);
  }
  for (; e < d; ++e) {
    for (size_t x = x0; x < x0 + X; ++x) {
      float acc = 0.0f;
      for (size_t y = 0; y < f; ++y) {
        if (y == x) continue;
        const float g = grow[y < x ? PairCol(f, y, x) : PairCol(f, x, y)];
        acc += g * features[y]->row(r)[e];
      }
      grads[x].row(r)[e] = acc;
    }
  }
}

}  // namespace

void MatMulInto(Tensor& c, MatView a, const Tensor& b, ThreadPool* pool) {
  FAE_CHECK_EQ(a.cols, b.rows());
  c.Resize(a.rows, b.cols());
  const size_t k = a.cols;
  const StridedA sa{a.data, k, 1};
  RowParallel(pool, a.rows, a.rows * k * b.cols(),
              [&](size_t i0, size_t i1) { GemmRows(sa, b, k, c, i0, i1); });
}

Tensor MatMul(const Tensor& a, const Tensor& b, ThreadPool* pool) {
  Tensor c;
  MatMulInto(c, a, b, pool);
  return c;
}

void MatMulTransAInto(Tensor& c, MatView a, const Tensor& b,
                      ThreadPool* pool) {
  FAE_CHECK_EQ(a.rows, b.rows());
  c.Resize(a.cols, b.cols());
  const size_t k = a.rows;
  const size_t m = a.cols;
  // Output rows are columns of A: A^T(i, kk) = a(kk, i).
  const StridedA sa{a.data, 1, m};
  RowParallel(pool, m, m * k * b.cols(),
              [&](size_t i0, size_t i1) { GemmRows(sa, b, k, c, i0, i1); });
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b, ThreadPool* pool) {
  Tensor c;
  MatMulTransAInto(c, a, b, pool);
  return c;
}

void MatMulTransBInto(Tensor& c, const Tensor& a, const Tensor& b,
                      ThreadPool* pool) {
  FAE_CHECK_EQ(a.cols(), b.cols());
  c.Resize(a.rows(), b.rows());
  const size_t k = a.cols();
  const size_t n = b.rows();
  RowParallel(pool, a.rows(), a.rows() * k * n, [&](size_t i0, size_t i1) {
    for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
      const size_t j1 = std::min(n, j0 + kBlockN);
      size_t i = i0;
      for (; i + 2 <= i1; i += 2) DotRows<2>(a, b, c, i, j0, j1);
      if (i < i1) DotRows<1>(a, b, c, i, j0, j1);
    }
  });
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b, ThreadPool* pool) {
  Tensor c;
  MatMulTransBInto(c, a, b, pool);
  return c;
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

Tensor ColumnSums(const Tensor& x) {
  Tensor out;
  ColumnSumsInto(out, x);
  return out;
}

void ReluForwardInto(Tensor& y, const Tensor& x) {
  y.Resize(x.rows(), x.cols());
  const float* src = x.data();
  float* dst = y.data();
  for (size_t i = 0; i < x.numel(); ++i) {
    dst[i] = std::max(0.0f, src[i]);
  }
}

Tensor ReluForward(const Tensor& x) {
  Tensor y;
  ReluForwardInto(y, x);
  return y;
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

Tensor ReluBackward(const Tensor& grad_out, const Tensor& x) {
  Tensor g = grad_out;
  ReluBackwardInPlace(g, x);
  return g;
}

Tensor SigmoidForward(const Tensor& x) {
  Tensor y = x;
  for (size_t i = 0; i < y.numel(); ++i) {
    y.data()[i] = 1.0f / (1.0f + std::exp(-y.data()[i]));
  }
  return y;
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

Tensor ConcatCols(const std::vector<const Tensor*>& blocks) {
  Tensor out;
  ConcatColsInto(out, blocks);
  return out;
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

std::vector<Tensor> SplitCols(const Tensor& grad,
                              const std::vector<size_t>& widths) {
  std::vector<Tensor> out(widths.size());
  std::vector<Tensor*> ptrs;
  ptrs.reserve(widths.size());
  for (Tensor& t : out) ptrs.push_back(&t);
  SplitColsInto(ptrs, grad, widths);
  return out;
}

Tensor SoftmaxRows(const Tensor& x) {
  Tensor y = x;
  for (size_t r = 0; r < y.rows(); ++r) {
    float* row = y.row(r);
    float mx = row[0];
    for (size_t c = 1; c < y.cols(); ++c) mx = std::max(mx, row[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < y.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (size_t c = 0; c < y.cols(); ++c) row[c] /= sum;
  }
  return y;
}

void PairwiseDotInteractionInto(Tensor& out,
                                const std::vector<const Tensor*>& features,
                                ThreadPool* pool) {
  FAE_CHECK_GE(features.size(), 2u);
  const size_t f = features.size();
  const size_t rows = features[0]->rows();
  const size_t d = features[0]->cols();
  for (const Tensor* t : features) {
    FAE_CHECK_EQ(t->rows(), rows);
    FAE_CHECK_EQ(t->cols(), d);
  }
  out.Resize(rows, f * (f - 1) / 2);
  RowParallel(pool, rows, rows * f * f * d / 2, [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      float* orow = out.row(r);
      // Features i and i + 1 share each f_j load for j >= i + 2; the pair
      // (i, i + 1) itself is a lone Dot. A last odd feature has no pairs.
      for (size_t i = 0; i + 2 <= f; i += 2) {
        const float* const x[2] = {features[i]->row(r),
                                   features[i + 1]->row(r)};
        float* o0 = orow + PairCol(f, i, i + 1);
        float* o1 = orow + PairCol(f, i + 1, i + 2);
        *o0++ = kernels::Dot(d, x[0], x[1]);
        size_t j = i + 2;
        for (; j + 4 <= f; j += 4) {
          const float* const y[4] = {
              features[j]->row(r), features[j + 1]->row(r),
              features[j + 2]->row(r), features[j + 3]->row(r)};
          float* const o[2] = {o0, o1};
          DotTile<2>(d, x, y, o);
          o0 += 4;
          o1 += 4;
        }
        for (; j < f; ++j) {
          const float* y = features[j]->row(r);
          *o0++ = kernels::Dot(d, x[0], y);
          *o1++ = kernels::Dot(d, x[1], y);
        }
      }
    }
  });
}

Tensor PairwiseDotInteraction(const std::vector<const Tensor*>& features,
                              ThreadPool* pool) {
  Tensor out;
  PairwiseDotInteractionInto(out, features, pool);
  return out;
}

void PairwiseDotInteractionBackwardInto(
    std::vector<Tensor>& grads, const Tensor& grad_out,
    const std::vector<const Tensor*>& features, ThreadPool* pool) {
  FAE_CHECK_GE(features.size(), 2u);
  const size_t f = features.size();
  const size_t rows = features[0]->rows();
  const size_t d = features[0]->cols();
  for (const Tensor* t : features) {
    FAE_CHECK_EQ(t->rows(), rows);
    FAE_CHECK_EQ(t->cols(), d);
  }
  FAE_CHECK_EQ(grad_out.rows(), rows);
  FAE_CHECK_EQ(grad_out.cols(), f * (f - 1) / 2);
  FAE_CHECK_EQ(grads.size(), f);
  for (Tensor& g : grads) g.Resize(rows, d);
  // Sample rows are independent, so partitioning over r is write-disjoint
  // in every grads[x].
  RowParallel(pool, rows, rows * f * f * d, [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* grow = grad_out.row(r);
      size_t x = 0;
      for (; x + 2 <= f; x += 2) {
        InteractionGrad<2>(features, grow, r, x, grads);
      }
      if (x < f) InteractionGrad<1>(features, grow, r, x, grads);
    }
  });
}

std::vector<Tensor> PairwiseDotInteractionBackward(
    const Tensor& grad_out, const std::vector<const Tensor*>& features,
    ThreadPool* pool) {
  std::vector<Tensor> grads(features.size());
  PairwiseDotInteractionBackwardInto(grads, grad_out, features, pool);
  return grads;
}

}  // namespace fae
