// Old-vs-new microbenchmark suite for the training hot-path kernels.
//
// The "seed" implementations below are verbatim copies of the scalar,
// map-based kernels this repo started with (an unordered_map sparse
// gradient, un-annotated inner loops, no thread pool, per-product GEMM and
// interaction loops); the "new" measurements run the current kernel layer
// (src/tensor/kernels.h, the register-tiled kernels of src/tensor/ops.cc,
// the fused scatter + update SparseSgd::FusedBackwardStep,
// ThreadPool::ParallelFor) at 1 and 4 threads. Every
// pairing is also checked for bit-exact agreement — the determinism
// contract says the rewrite changes speed, never results.
//
// Two groups of rows: a dim sweep (GEMM [batch, dim] x [dim, dim] and the
// embedding kernels at dims 16/64/128), and the dense layers the host
// benchmark's workloads train (hostbench/): the forward, weight-gradient
// and input-gradient GEMMs of Kaggle DLRM's 13-64-16 bottom and 367-64-1
// top MLPs and of Taobao TBSM's 3-16 bottom, 16-16 per-timestep (batch x
// 21 history rows) and 80-30-1 top MLPs, plus DLRM's 27-feature pairwise
// interaction: forward, backward and the two back to back, at dim 16 for
// the training, eval and serving batches (1024, 512, 256) and at dim 64
// for the training batch. The new GEMM and interaction rows write
// workspaces reused across iterations, as a training step does, so they
// time no allocation or first touch of an output. The interaction's new
// rows write the top MLP's input [bottom out | pairs] and read its
// gradient [direct | pairs]; the seed loops produce and read the pairs
// alone. The GEMM and interaction rows run once per build of the tiled
// kernels the host supports (4-lane baseline, 8-lane AVX2 and the AVX-512
// table, which picks 16- or 8-lane GEMM tiles per class of shapes;
// src/tensor/ops.cc), each such row naming its build in an "isa" field;
// the JSON header names the build the dispatcher picked. The last rows
// time Crc32, the checksum of every file the library saves and loads,
// over an 18 MB buffer (about a Kaggle-like dataset file) in MB/s: the
// byte-at-a-time loop as the seed, then one row per build the host
// supports (slicing8 and the pclmul fold; src/util/crc32.h), each naming
// its build in "isa".
//
// Usage:
//   micro_kernels [--out=<build>/bench/BENCH_kernels.json] [--reps=5]
//                 [--smoke]
//
// The default --out is in the build tree; to refresh the committed file,
// run the full suite from the repo root with --out=bench/BENCH_kernels.json.
//
// --smoke shrinks every size so the whole suite runs in well under a
// second; ctest's bench_smoke target uses it (see EXPERIMENTS.md).
//
// Results are written as JSON. The headline number the kernel PR is gated
// on — fused embedding backward+optimizer at dim 64, batch 2048, 4 threads
// vs the seed scalar path — is surfaced as the top-level field
// "criterion_backward_dim64_t4_speedup".

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "embedding/embedding_bag.h"
#include "embedding/embedding_table.h"
#include "embedding/sparse_sgd.h"
#include "tensor/dense_tiles.h"
#include "tensor/ops.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fae {
namespace {

/// A compiler barrier for timed loops: the empty asm claims to read
/// `value` and all of memory, so the computation that produced it (and
/// every store it depends on) cannot be dropped as unused.
template <typename T>
inline void DoNotOptimize(const T& value) {
  __asm__ __volatile__("" : : "r,m"(value) : "memory");
}

// ---------------------------------------------------------------------------
// Seed implementations (the pre-kernel-layer scalar path), kept here as the
// measurement baseline. Do not "improve" these: their value is being what
// the repo shipped before the rewrite.
// ---------------------------------------------------------------------------

struct LegacySparseGrad {
  size_t dim = 0;
  std::unordered_map<uint64_t, std::vector<float>> rows;
};

Tensor LegacyEmbeddingForward(const EmbeddingTable& table,
                              const std::vector<uint32_t>& indices,
                              const std::vector<uint32_t>& offsets) {
  const size_t b = offsets.size() - 1;
  const size_t dim = table.dim();
  Tensor out(b, dim);
  for (size_t i = 0; i < b; ++i) {
    float* orow = out.row(i);
    for (uint32_t p = offsets[i]; p < offsets[i + 1]; ++p) {
      const float* erow = table.row(indices[p]);
      for (size_t k = 0; k < dim; ++k) orow[k] += erow[k];
    }
  }
  return out;
}

LegacySparseGrad LegacyEmbeddingBackward(const Tensor& grad_out,
                                         const std::vector<uint32_t>& indices,
                                         const std::vector<uint32_t>& offsets,
                                         size_t dim) {
  LegacySparseGrad grad;
  grad.dim = dim;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    const float* grow = grad_out.row(i);
    for (uint32_t p = offsets[i]; p < offsets[i + 1]; ++p) {
      auto [it, inserted] =
          grad.rows.try_emplace(indices[p], std::vector<float>(dim, 0.0f));
      std::vector<float>& acc = it->second;
      for (size_t k = 0; k < dim; ++k) acc[k] += grow[k];
    }
  }
  return grad;
}

void LegacySparseSgdStep(EmbeddingTable& table, const LegacySparseGrad& grad,
                         float lr) {
  for (const auto& [row_id, g] : grad.rows) {
    float* row = table.row(row_id);
    for (size_t k = 0; k < grad.dim; ++k) row[k] -= lr * g[k];
  }
}

Tensor LegacyMatMulBlocked(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  constexpr size_t kKc = 128;
  constexpr size_t kJc = 128;
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t k1 = std::min(k, k0 + kKc);
    for (size_t j0 = 0; j0 < n; j0 += kJc) {
      const size_t j1 = std::min(n, j0 + kJc);
      for (size_t i = 0; i < m; ++i) {
        const float* arow = a.row(i);
        float* crow = c.row(i);
        for (size_t kk = k0; kk < k1; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b.row(kk);
          for (size_t j = j0; j < j1; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    }
  }
  return c;
}

Tensor LegacyMatMulTransA(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  for (size_t kk = 0; kk < a.rows(); ++kk) {
    const float* arow = a.row(kk);
    const float* brow = b.row(kk);
    for (size_t i = 0; i < a.cols(); ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.row(i);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

/// The four-accumulator dot product of the seed's TransB and interaction.
float LegacyDot(size_t n, const float* x, const float* y) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i + 0] * y[i + 0];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += x[i] * y[i];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

Tensor LegacyMatMulTransB(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      c(i, j) = LegacyDot(a.cols(), a.row(i), b.row(j));
    }
  }
  return c;
}

Tensor LegacyInteraction(const std::vector<const Tensor*>& f) {
  const size_t d = f[0]->cols();
  Tensor out(f[0]->rows(), f.size() * (f.size() - 1) / 2);
  for (size_t r = 0; r < out.rows(); ++r) {
    float* orow = out.row(r);
    size_t col = 0;
    for (size_t i = 0; i < f.size(); ++i) {
      for (size_t j = i + 1; j < f.size(); ++j) {
        orow[col++] = LegacyDot(d, f[i]->row(r), f[j]->row(r));
      }
    }
  }
  return out;
}

std::vector<Tensor> LegacyInteractionBackward(
    const Tensor& grad_out, const std::vector<const Tensor*>& f) {
  const size_t d = f[0]->cols();
  std::vector<Tensor> grads(f.size(), Tensor(f[0]->rows(), d));
  for (size_t r = 0; r < grad_out.rows(); ++r) {
    const float* grow = grad_out.row(r);
    size_t col = 0;
    for (size_t i = 0; i < f.size(); ++i) {
      for (size_t j = i + 1; j < f.size(); ++j) {
        const float g = grow[col++];
        if (g == 0.0f) continue;
        const float* fi = f[i]->row(r);
        const float* fj = f[j]->row(r);
        float* gi = grads[i].row(r);
        float* gj = grads[j].row(r);
        for (size_t e = 0; e < d; ++e) gi[e] += g * fj[e];
        for (size_t e = 0; e < d; ++e) gj[e] += g * fi[e];
      }
    }
  }
  return grads;
}

/// The byte-at-a-time table loop Crc32 ran before slicing-by-8.
uint32_t LegacyCrc32(const void* data, size_t n) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------------------
// Timing harness: calibrate an iteration count against a time target, then
// take the fastest of `reps` averaged runs (min-of-reps rejects scheduler
// noise without the variance of single-shot timing).
// ---------------------------------------------------------------------------

struct TimingConfig {
  int reps = 5;
  double target_seconds = 0.02;  // per calibrated timing run
};

double SecondsPerIter(const std::function<void()>& fn,
                      const TimingConfig& cfg) {
  fn();  // warm caches and the allocator
  size_t iters = 1;
  for (;;) {
    Stopwatch sw;
    for (size_t i = 0; i < iters; ++i) fn();
    const double elapsed = sw.ElapsedSeconds();
    if (elapsed >= cfg.target_seconds || iters >= (1u << 22)) break;
    const double scale = cfg.target_seconds / std::max(elapsed, 1e-9);
    iters = std::max(iters + 1, static_cast<size_t>(iters * scale * 1.2));
  }
  double best = 1e100;
  for (int r = 0; r < cfg.reps; ++r) {
    Stopwatch sw;
    for (size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, sw.ElapsedSeconds() / static_cast<double>(iters));
  }
  return best;
}

struct BenchResult {
  std::string kernel;  // gemm | gemm_trans_a | gemm_trans_b |
                       // interaction_fwd | interaction_bwd |
                       // interaction_fwd_bwd | embedding_forward |
                       // embedding_backward_opt | crc32
  std::string impl;    // seed | new
  // Build of the tiled kernels (baseline | avx2 | avx512) on the GEMM and
  // interaction kernels' new rows; empty elsewhere.
  std::string isa;
  // GEMMs: "m x k x n" of the product; interaction: "rows x features x
  // dim"; embedding: "batch x lookups x dim"; crc32: bytes.
  std::string shape;
  size_t dim = 0;
  size_t batch = 0;
  size_t threads = 1;
  double seconds_per_iter = 0.0;
  double speedup_vs_seed = 1.0;
  bool bitexact_vs_seed = true;
  double mb_per_s = 0.0;  // byte-stream kernels (crc32) only
};

/// Bitwise equality: a changed summation order or a flipped zero sign
/// both count as a disagreement.
bool TensorsEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

bool TensorsEqual(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!TensorsEqual(a[i], b[i])) return false;
  }
  return true;
}

std::string Shape3(size_t a, size_t b, size_t c) {
  return std::to_string(a) + "x" + std::to_string(b) + "x" +
         std::to_string(c);
}

struct SuiteConfig {
  std::vector<size_t> dims;
  std::vector<size_t> threads;  // first entry must be 1
  size_t batch = 2048;
  // Global batch of the workload-layer rows: hostbench trains 4 GPUs x 256.
  size_t layer_batch = 1024;
  size_t lookups_per_sample = 4;
  uint64_t table_rows = 100000;
  size_t crc_bytes = 18'000'000;
  TimingConfig timing;
};

/// Synthetic CSR lookup list: `batch` samples, a fixed pooling factor,
/// uniform row ids (plenty of distinct rows, some collisions).
void MakeLookups(const SuiteConfig& cfg, Xoshiro256& rng,
                 std::vector<uint32_t>& indices,
                 std::vector<uint32_t>& offsets) {
  indices.clear();
  offsets.assign(1, 0);
  for (size_t i = 0; i < cfg.batch; ++i) {
    for (size_t j = 0; j < cfg.lookups_per_sample; ++j) {
      indices.push_back(static_cast<uint32_t>(rng.NextBounded(cfg.table_rows)));
    }
    offsets.push_back(static_cast<uint32_t>(indices.size()));
  }
}

/// The seed row of one kernel.
BenchResult MeasureSeed(const SuiteConfig& cfg, const std::string& kernel,
                        const std::string& shape, size_t dim, size_t batch,
                        const std::function<void()>& run_seed) {
  BenchResult seed;
  seed.kernel = kernel;
  seed.impl = "seed";
  seed.shape = shape;
  seed.dim = dim;
  seed.batch = batch;
  seed.threads = 1;
  seed.seconds_per_iter = SecondsPerIter(run_seed, cfg.timing);
  return seed;
}

/// Appends one new row per thread count, measured against `seed`.
/// `run_new(pool)` must execute the new kernel (pool == nullptr → serial)
/// and `check(pool)` return bit-exactness of its result against the
/// seed's. `seed` is taken by value: a reference into `out` would dangle
/// once a push_back reallocates it.
void AppendNewRows(const SuiteConfig& cfg, const BenchResult seed,
                   const std::string& isa,
                   const std::function<void(ThreadPool*)>& run_new,
                   const std::function<bool(ThreadPool*)>& check,
                   std::vector<BenchResult>& out) {
  for (size_t threads : cfg.threads) {
    ThreadPool local(threads > 1 ? threads : 1);
    ThreadPool* pool = threads > 1 ? &local : nullptr;
    BenchResult r = seed;
    r.impl = "new";
    r.isa = isa;
    r.threads = threads;
    r.bitexact_vs_seed = check(pool);
    r.seconds_per_iter =
        SecondsPerIter([&] { run_new(pool); }, cfg.timing);
    r.speedup_vs_seed = seed.seconds_per_iter / r.seconds_per_iter;
    out.push_back(r);
  }
}

/// Appends seed + per-thread-count new measurements for one kernel.
void RunPair(const SuiteConfig& cfg, const std::string& kernel,
             const std::string& shape, size_t dim, size_t batch,
             const std::function<void()>& run_seed,
             const std::function<void(ThreadPool*)>& run_new,
             const std::function<bool(ThreadPool*)>& check,
             std::vector<BenchResult>& out) {
  const BenchResult seed =
      MeasureSeed(cfg, kernel, shape, dim, batch, run_seed);
  out.push_back(seed);
  AppendNewRows(cfg, seed, "", run_new, check, out);
}

/// RunPair for a tiled kernel: the seed row once, then the new rows once
/// per build the host supports, `run_new` and `check` taking the build's
/// kernels.
void RunTiledPair(
    const SuiteConfig& cfg, const std::string& kernel,
    const std::string& shape, size_t dim, size_t batch,
    const std::function<void()>& run_seed,
    const std::function<void(const tiles::Kernels&, ThreadPool*)>& run_new,
    const std::function<bool(const tiles::Kernels&, ThreadPool*)>& check,
    std::vector<BenchResult>& out) {
  const BenchResult seed =
      MeasureSeed(cfg, kernel, shape, dim, batch, run_seed);
  out.push_back(seed);
  for (tiles::Isa isa :
       {tiles::Isa::kBaseline, tiles::Isa::kAvx2, tiles::Isa::kAvx512}) {
    if (!tiles::IsaSupported(isa)) continue;
    const tiles::Kernels& ops = tiles::KernelsFor(isa);
    AppendNewRows(
        cfg, seed, tiles::IsaName(isa),
        [&](ThreadPool* pool) { run_new(ops, pool); },
        [&](ThreadPool* pool) { return check(ops, pool); }, out);
  }
}

// The seed interaction's results in the new kernels' layout, for the
// bit-exactness checks only.

/// [features[0] | the seed's pairs]: the top MLP's input.
Tensor LegacyTopInput(const std::vector<const Tensor*>& f) {
  const Tensor pairs = LegacyInteraction(f);
  const size_t d = f[0]->cols();
  Tensor out(pairs.rows(), d + pairs.cols());
  for (size_t r = 0; r < out.rows(); ++r) {
    std::copy(f[0]->row(r), f[0]->row(r) + d, out.row(r));
    std::copy(pairs.row(r), pairs.row(r) + pairs.cols(), out.row(r) + d);
  }
  return out;
}

/// The seed backward of the pair columns of `grad_top` [direct | pairs],
/// then the direct columns added to the first feature's gradient.
std::vector<Tensor> LegacyTopBackward(const Tensor& grad_top,
                                      const std::vector<const Tensor*>& f) {
  const size_t d = f[0]->cols();
  Tensor pairs(grad_top.rows(), grad_top.cols() - d);
  for (size_t r = 0; r < pairs.rows(); ++r) {
    std::copy(grad_top.row(r) + d, grad_top.row(r) + grad_top.cols(),
              pairs.row(r));
  }
  std::vector<Tensor> grads = LegacyInteractionBackward(pairs, f);
  for (size_t r = 0; r < grads[0].rows(); ++r) {
    for (size_t e = 0; e < d; ++e) grads[0](r, e) += grad_top(r, e);
  }
  return grads;
}

std::vector<BenchResult> RunSuite(const SuiteConfig& cfg) {
  std::vector<BenchResult> results;
  for (size_t dim : cfg.dims) {
    Xoshiro256 rng(1234 + dim);
    EmbeddingTable table(cfg.table_rows, dim, rng);
    std::vector<uint32_t> indices;
    std::vector<uint32_t> offsets;
    MakeLookups(cfg, rng, indices, offsets);
    Tensor grad_out = Tensor::Randn(cfg.batch, dim, 0.1f, rng);
    const float lr = 0.05f;

    // GEMM shaped like an MLP layer at this batch: [B, dim] x [dim, dim].
    Tensor a = Tensor::Randn(cfg.batch, dim, 1.0f, rng);
    Tensor b = Tensor::Randn(dim, dim, 1.0f, rng);
    Tensor c;
    RunTiledPair(
        cfg, "gemm", Shape3(cfg.batch, dim, dim), dim, cfg.batch,
        [&] {
          Tensor seed_c = LegacyMatMulBlocked(a, b);
          DoNotOptimize(seed_c.data());
        },
        [&](const tiles::Kernels& ops, ThreadPool* pool) {
          ops.mat_mul(c, a, b, pool);
          DoNotOptimize(c.data());
        },
        [&](const tiles::Kernels& ops, ThreadPool* pool) {
          ops.mat_mul(c, a, b, pool);
          return TensorsEqual(LegacyMatMulBlocked(a, b), c);
        },
        results);

    // Sum-pooled embedding gather. The new kernel pools into a workspace
    // reused across iterations, as the training step does.
    const std::string lookups =
        Shape3(cfg.batch, cfg.lookups_per_sample, dim);
    Tensor pooled;
    RunPair(
        cfg, "embedding_forward", lookups, dim, cfg.batch,
        [&] {
          Tensor o = LegacyEmbeddingForward(table, indices, offsets);
          DoNotOptimize(o.data());
        },
        [&](ThreadPool* pool) {
          EmbeddingBag::ForwardInto(pooled, table, indices, offsets, pool);
          DoNotOptimize(pooled.data());
        },
        [&](ThreadPool* pool) {
          EmbeddingBag::ForwardInto(pooled, table, indices, offsets, pool);
          return TensorsEqual(LegacyEmbeddingForward(table, indices, offsets),
                              pooled);
        },
        results);

    // Backward scatter + optimizer. Seed: map-based scatter then the
    // map-walking SGD step. New: the fused scatter + update pass. Both mutate
    // a private table so the timed loops stay self-contained.
    EmbeddingTable seed_table(cfg.table_rows, dim);
    EmbeddingTable new_table(cfg.table_rows, dim);
    SparseSgd sgd(lr);
    RunPair(
        cfg, "embedding_backward_opt", lookups, dim, cfg.batch,
        [&] {
          LegacySparseGrad g =
              LegacyEmbeddingBackward(grad_out, indices, offsets, dim);
          LegacySparseSgdStep(seed_table, g, lr);
          DoNotOptimize(seed_table.raw().data());
        },
        [&](ThreadPool* pool) {
          sgd.FusedBackwardStep(new_table, grad_out, indices, offsets, pool);
          DoNotOptimize(new_table.raw().data());
        },
        [&](ThreadPool* pool) {
          // One step from identical fresh states must land on identical
          // tables.
          Xoshiro256 r1(99), r2(99);
          EmbeddingTable t1(cfg.table_rows, dim, r1);
          EmbeddingTable t2(cfg.table_rows, dim, r2);
          LegacySparseGrad g =
              LegacyEmbeddingBackward(grad_out, indices, offsets, dim);
          LegacySparseSgdStep(t1, g, lr);
          sgd.FusedBackwardStep(t2, grad_out, indices, offsets, pool);
          return t1.raw() == t2.raw();
        },
        results);
  }
  return results;
}

/// One dense layer of a workload's MLPs: `rows_per_sample` activation
/// rows per sample (TBSM's per-timestep MLP sees 21 per sample). Its rows
/// report dim 0: they belong to no point of the dim sweep.
struct LayerShape {
  size_t rows_per_sample;
  size_t in;
  size_t out;
};

constexpr LayerShape kWorkloadLayers[] = {
    {1, 13, 64},  {1, 64, 16}, {1, 367, 64}, {1, 64, 1},  // Kaggle DLRM
    {1, 3, 16},   {21, 16, 16}, {1, 80, 30}, {1, 30, 1},  // Taobao TBSM
};

/// The Kaggle DLRM interaction (26 tables + bottom MLP) at one batch and
/// dim: forward, backward, and forward then backward.
void RunInteractionRows(const SuiteConfig& cfg, size_t rows, size_t dim,
                        Xoshiro256& rng, std::vector<BenchResult>& results) {
  constexpr size_t kFeatures = 27;
  constexpr size_t kPairs = kFeatures * (kFeatures - 1) / 2;
  std::vector<Tensor> feats;
  std::vector<const Tensor*> ptrs;
  for (size_t i = 0; i < kFeatures; ++i) {
    feats.push_back(Tensor::Randn(rows, dim, 1.0f, rng));
  }
  for (const Tensor& f : feats) ptrs.push_back(&f);
  // The seed reads the pair columns alone; the new kernels [direct |
  // pairs], whose pair columns are the same values.
  const Tensor grad_top = Tensor::Randn(rows, dim + kPairs, 0.1f, rng);
  Tensor grad_pairs(rows, kPairs);
  for (size_t r = 0; r < rows; ++r) {
    std::copy(grad_top.row(r) + dim, grad_top.row(r) + dim + kPairs,
              grad_pairs.row(r));
  }
  Tensor top_in;
  std::vector<Tensor> grads(kFeatures);
  const std::string shape = Shape3(rows, kFeatures, dim);
  RunTiledPair(
      cfg, "interaction_fwd", shape, dim, rows,
      [&] { DoNotOptimize(LegacyInteraction(ptrs).data()); },
      [&](const tiles::Kernels& ops, ThreadPool* pool) {
        ops.interaction(top_in, ptrs, pool);
        DoNotOptimize(top_in.data());
      },
      [&](const tiles::Kernels& ops, ThreadPool* pool) {
        ops.interaction(top_in, ptrs, pool);
        return TensorsEqual(LegacyTopInput(ptrs), top_in);
      },
      results);
  RunTiledPair(
      cfg, "interaction_bwd", shape, dim, rows,
      [&] {
        DoNotOptimize(LegacyInteractionBackward(grad_pairs, ptrs).data());
      },
      [&](const tiles::Kernels& ops, ThreadPool* pool) {
        ops.interaction_backward(grads, grad_top, ptrs, pool);
        DoNotOptimize(grads.data());
      },
      [&](const tiles::Kernels& ops, ThreadPool* pool) {
        ops.interaction_backward(grads, grad_top, ptrs, pool);
        return TensorsEqual(LegacyTopBackward(grad_top, ptrs), grads);
      },
      results);
  // Back to back, as a training step runs them (with the top MLP
  // between): the backward reads the features the forward just read.
  RunTiledPair(
      cfg, "interaction_fwd_bwd", shape, dim, rows,
      [&] {
        DoNotOptimize(LegacyInteraction(ptrs).data());
        DoNotOptimize(LegacyInteractionBackward(grad_pairs, ptrs).data());
      },
      [&](const tiles::Kernels& ops, ThreadPool* pool) {
        ops.interaction(top_in, ptrs, pool);
        DoNotOptimize(top_in.data());
        ops.interaction_backward(grads, grad_top, ptrs, pool);
        DoNotOptimize(grads.data());
      },
      [&](const tiles::Kernels& ops, ThreadPool* pool) {
        ops.interaction(top_in, ptrs, pool);
        ops.interaction_backward(grads, grad_top, ptrs, pool);
        return TensorsEqual(LegacyTopInput(ptrs), top_in) &&
               TensorsEqual(LegacyTopBackward(grad_top, ptrs), grads);
      },
      results);
}

/// The forward and both gradient GEMMs of every workload layer, and the
/// Kaggle DLRM interaction at dim 16 for the training, eval and serving
/// batches and at dim 64 for the training batch.
void RunLayerSuite(const SuiteConfig& cfg, std::vector<BenchResult>& results) {
  Xoshiro256 rng(4321);
  Tensor c;
  for (const LayerShape& l : kWorkloadLayers) {
    const size_t m = cfg.layer_batch * l.rows_per_sample;
    const Tensor x = Tensor::Randn(m, l.in, 1.0f, rng);
    const Tensor w = Tensor::Randn(l.in, l.out, 0.3f, rng);
    const Tensor g = Tensor::Randn(m, l.out, 0.1f, rng);
    RunTiledPair(
        cfg, "gemm", Shape3(m, l.in, l.out), 0, m,
        [&] { DoNotOptimize(LegacyMatMulBlocked(x, w).data()); },
        [&](const tiles::Kernels& ops, ThreadPool* pool) {
          ops.mat_mul(c, x, w, pool);
          DoNotOptimize(c.data());
        },
        [&](const tiles::Kernels& ops, ThreadPool* pool) {
          ops.mat_mul(c, x, w, pool);
          return TensorsEqual(LegacyMatMulBlocked(x, w), c);
        },
        results);
    RunTiledPair(
        cfg, "gemm_trans_a", Shape3(l.in, m, l.out), 0, m,
        [&] { DoNotOptimize(LegacyMatMulTransA(x, g).data()); },
        [&](const tiles::Kernels& ops, ThreadPool* pool) {
          ops.mat_mul_trans_a(c, x, g, pool);
          DoNotOptimize(c.data());
        },
        [&](const tiles::Kernels& ops, ThreadPool* pool) {
          ops.mat_mul_trans_a(c, x, g, pool);
          return TensorsEqual(LegacyMatMulTransA(x, g), c);
        },
        results);
    RunTiledPair(
        cfg, "gemm_trans_b", Shape3(m, l.out, l.in), 0, m,
        [&] { DoNotOptimize(LegacyMatMulTransB(g, w).data()); },
        [&](const tiles::Kernels& ops, ThreadPool* pool) {
          ops.mat_mul_trans_b(c, g, w, pool);
          DoNotOptimize(c.data());
        },
        [&](const tiles::Kernels& ops, ThreadPool* pool) {
          ops.mat_mul_trans_b(c, g, w, pool);
          return TensorsEqual(LegacyMatMulTransB(g, w), c);
        },
        results);
  }
  RunInteractionRows(cfg, cfg.layer_batch, 16, rng, results);
  RunInteractionRows(cfg, cfg.layer_batch, 64, rng, results);
  RunInteractionRows(cfg, cfg.layer_batch / 2, 16, rng, results);
  RunInteractionRows(cfg, cfg.layer_batch / 4, 16, rng, results);
}

/// Crc32's builds against the byte loop over one buffer; single-threaded,
/// so one seed row and one new row per build the host supports.
/// Bit-exact means equal checksums of the whole buffer and of a
/// misaligned, odd-length slice of it.
void RunCrcSuite(const SuiteConfig& cfg, std::vector<BenchResult>& results) {
  Xoshiro256 rng(777);
  std::vector<unsigned char> buf(cfg.crc_bytes);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  const double mb = static_cast<double>(buf.size()) / 1e6;
  BenchResult seed;
  seed.kernel = "crc32";
  seed.impl = "seed";
  seed.shape = std::to_string(buf.size());
  seed.seconds_per_iter = SecondsPerIter(
      [&] { DoNotOptimize(LegacyCrc32(buf.data(), buf.size())); },
      cfg.timing);
  seed.mb_per_s = mb / seed.seconds_per_iter;
  results.push_back(seed);
  for (crc::Isa isa : {crc::Isa::kSlicing8, crc::Isa::kPclmul}) {
    if (!crc::IsaSupported(isa)) continue;
    const crc::Fn crc32 = crc::CrcFor(isa);
    BenchResult r = seed;
    r.impl = "new";
    r.isa = crc::IsaName(isa);
    r.bitexact_vs_seed =
        crc32(buf.data(), buf.size(), 0) ==
            LegacyCrc32(buf.data(), buf.size()) &&
        crc32(buf.data() + 3, buf.size() - 8, 0) ==
            LegacyCrc32(buf.data() + 3, buf.size() - 8);
    r.seconds_per_iter = SecondsPerIter(
        [&] { DoNotOptimize(crc32(buf.data(), buf.size(), 0)); }, cfg.timing);
    r.mb_per_s = mb / r.seconds_per_iter;
    r.speedup_vs_seed = seed.seconds_per_iter / r.seconds_per_iter;
    results.push_back(r);
  }
}

void WriteJson(const std::string& path, const SuiteConfig& cfg,
               const std::vector<BenchResult>& results, double criterion) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"suite\": \"micro_kernels\",\n");
  std::fprintf(f, "  \"batch\": %zu,\n", cfg.batch);
  std::fprintf(f, "  \"layer_batch\": %zu,\n", cfg.layer_batch);
  std::fprintf(f, "  \"lookups_per_sample\": %zu,\n", cfg.lookups_per_sample);
  std::fprintf(f, "  \"table_rows\": %llu,\n",
               static_cast<unsigned long long>(cfg.table_rows));
  std::fprintf(f, "  \"crc_bytes\": %zu,\n", cfg.crc_bytes);
  std::fprintf(f, "  \"dispatched_isa\": \"%s\",\n",
               tiles::IsaName(tiles::DispatchedIsa()));
  std::fprintf(f, "  \"dispatched_crc32\": \"%s\",\n",
               crc::IsaName(crc::DispatchedIsa()));
  std::fprintf(f, "  \"criterion_backward_dim64_t4_speedup\": %.3f,\n",
               criterion);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"impl\": \"%s\", ",
                 r.kernel.c_str(), r.impl.c_str());
    if (!r.isa.empty()) std::fprintf(f, "\"isa\": \"%s\", ", r.isa.c_str());
    std::fprintf(f,
                 "\"shape\": \"%s\", \"dim\": %zu, "
                 "\"batch\": %zu, \"threads\": %zu, "
                 "\"seconds_per_iter\": %.9f, \"speedup_vs_seed\": %.3f, "
                 "\"bitexact_vs_seed\": %s",
                 r.shape.c_str(), r.dim, r.batch, r.threads,
                 r.seconds_per_iter, r.speedup_vs_seed,
                 r.bitexact_vs_seed ? "true" : "false");
    if (r.mb_per_s > 0.0) {
      std::fprintf(f, ", \"mb_per_s\": %.1f", r.mb_per_s);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace fae

int main(int argc, char** argv) {
  fae::bench::Args args(argc, argv);
  fae::SuiteConfig cfg;
  const bool smoke = args.GetBool("smoke", false);
  if (smoke) {
    cfg.dims = {16};
    cfg.threads = {1, 2};
    cfg.batch = 256;
    cfg.layer_batch = 64;
    cfg.table_rows = 2000;
    cfg.crc_bytes = 1'000'003;
    cfg.timing.reps = 1;
    cfg.timing.target_seconds = 0.001;
  } else {
    cfg.dims = {16, 64, 128};
    cfg.threads = {1, 4};
    cfg.batch = 2048;
    cfg.table_rows = 100000;
    cfg.timing.reps = static_cast<int>(args.GetPositiveInt("reps", 5));
    cfg.timing.target_seconds = 0.02;
  }

  fae::bench::PrintHeader(
      "micro_kernels: seed scalar path vs vectorized/threaded kernels");
  std::vector<fae::BenchResult> results = fae::RunSuite(cfg);
  fae::RunLayerSuite(cfg, results);
  fae::RunCrcSuite(cfg, results);

  bool all_bitexact = true;
  double criterion = 0.0;
  std::printf("dispatched isa: %s, crc32: %s\n",
              fae::tiles::IsaName(fae::tiles::DispatchedIsa()),
              fae::crc::IsaName(fae::crc::DispatchedIsa()));
  std::printf("%-24s %-5s %-8s %-13s %8s %12s %9s %9s\n", "kernel", "impl",
              "isa", "shape", "threads", "sec/iter", "speedup", "bitexact");
  for (const fae::BenchResult& r : results) {
    std::printf("%-24s %-5s %-8s %-13s %8zu %12.3e %8.2fx %9s",
                r.kernel.c_str(), r.impl.c_str(),
                r.isa.empty() ? "-" : r.isa.c_str(), r.shape.c_str(),
                r.threads,
                r.seconds_per_iter, r.speedup_vs_seed,
                r.bitexact_vs_seed ? "yes" : "NO");
    if (r.mb_per_s > 0.0) std::printf(" %9.0f MB/s", r.mb_per_s);
    std::printf("\n");
    all_bitexact = all_bitexact && r.bitexact_vs_seed;
    if (r.kernel == "embedding_backward_opt" && r.impl == "new" &&
        r.dim == 64 && r.threads == 4) {
      criterion = r.speedup_vs_seed;
    }
  }
  if (criterion > 0.0) {
    std::printf(
        "\nheadline: fused embedding backward+optimizer dim=64 batch=%zu "
        "threads=4 -> %.2fx vs seed\n",
        cfg.batch, criterion);
  }
  double slicing_s = 0.0;
  for (const fae::BenchResult& r : results) {
    if (r.kernel != "crc32" || r.impl != "new") continue;
    if (r.isa == "slicing8") {
      slicing_s = r.seconds_per_iter;
    } else if (slicing_s > 0.0) {
      std::printf("crc32 %s fold: %.2fx slicing8\n", r.isa.c_str(),
                  slicing_s / r.seconds_per_iter);
    }
  }

  // The build tree, not the working directory: a run from the repo root
  // must not overwrite the committed bench/BENCH_kernels.json.
  const std::string out = args.GetString(
      "out", std::string(FAE_BENCH_OUT_DIR) + "/BENCH_kernels.json");
  fae::WriteJson(out, cfg, results, criterion);
  std::printf("wrote %s\n", out.c_str());

  if (!all_bitexact) {
    std::fprintf(stderr,
                 "FAIL: a new kernel disagrees with the seed result\n");
    return 1;
  }
  return 0;
}
