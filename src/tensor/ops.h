#ifndef FAE_TENSOR_OPS_H_
#define FAE_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fae {

// Every kernel writes a caller-owned workspace (Tensor::Resize reuses the
// allocation once grown), so a warmed-up caller allocates nothing.
// A-operands are MatViews so activations can be consumed straight out of
// flat dataset buffers.

/// The build of the register-tiled kernels below that this process runs:
/// "baseline" (4 lanes), "avx2" (8) or "avx512" (16), the widest the CPU
/// supports. Every build gives the same bits; only the speed differs.
const char* DenseKernelsName();

/// C = A[m,k] * B[k,n], register-tiled. Each C element is +0 plus its
/// products in ascending k — the scalar i-k-j loop's sequence, so the
/// result is that loop's bit for bit (for finite inputs; kernels.h). When
/// `pool` is non-null the work is split over A's rows;
/// output rows are written by exactly one thread each, so the result is
/// bit-identical at any thread count.
void MatMulInto(Tensor& c, MatView a, const Tensor& b,
                ThreadPool* pool = nullptr);

/// C = A^T[k,m] * B[k,n] — i.e. MatMulInto(transpose(a), b) without
/// materializing the transpose, with MatMulInto's per-element order. Used
/// for weight gradients.
void MatMulTransAInto(Tensor& c, MatView a, const Tensor& b,
                      ThreadPool* pool = nullptr);

/// C = A[m,k] * B^T[n,k], C(i, j) = kernels::Dot(k, a.row(i), b.row(j))
/// bit for bit — used for input gradients.
void MatMulTransBInto(Tensor& c, const Tensor& a, const Tensor& b,
                      ThreadPool* pool = nullptr);

/// y(r, c) = x(r, c) + bias(0, c); bias is [1, cols].
void AddBiasRowwise(Tensor& x, const Tensor& bias);

/// Column-wise sum of grad rows into a [1, cols] tensor (bias gradient).
void ColumnSumsInto(Tensor& out, const Tensor& x);

/// Elementwise max(x, 0).
void ReluForwardInto(Tensor& y, const Tensor& x);

/// dL/dx given dL/dy and the forward *input* x, in place: zeroes grad
/// entries where x <= 0.
void ReluBackwardInPlace(Tensor& grad, const Tensor& x);

/// Horizontal concatenation of equally-tall blocks.
void ConcatColsInto(Tensor& out, const std::vector<const Tensor*>& blocks);

/// Splits `grad` (the gradient of a ConcatColsInto output) back into
/// per-block gradients with the given widths; `outs` supplies one
/// workspace per width.
void SplitColsInto(const std::vector<Tensor*>& outs, const Tensor& grad,
                   const std::vector<size_t>& widths);

/// DLRM-style pairwise-dot feature interaction, written as DLRM's top-MLP
/// input (the reference DLRM's interact_features, cat([x] + [Zflat])).
///
/// Inputs: F feature blocks, each [B, d]; features[0] is the bottom MLP's
/// output. Output: [B, d + F*(F-1)/2]: columns [0, d) are bit-copies of
/// features[0], then the dot products kernels::Dot(d, f_i, f_j) for i < j,
/// per sample, i-major.
void PairwiseDotInteractionInto(Tensor& out,
                                const std::vector<const Tensor*>& features,
                                ThreadPool* pool = nullptr);

/// Backward of PairwiseDotInteractionInto: given dL/dout [B, d +
/// F*(F-1)/2] ([direct | pairs]) and the forward feature blocks, writes
/// dL/df for each block: dL/df_x = sum over y != x, ascending, of
/// dL/dout(x, y) * f_y, from +0; dL/df_0 then adds the direct columns.
/// `grads` must already hold features.size() workspaces.
void PairwiseDotInteractionBackwardInto(
    std::vector<Tensor>& grads, const Tensor& grad_out,
    const std::vector<const Tensor*>& features, ThreadPool* pool = nullptr);

}  // namespace fae

#endif  // FAE_TENSOR_OPS_H_
