#include "models/tbsm.h"

#include <algorithm>

#include "tensor/loss.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace fae {

Tbsm::Tbsm(const DatasetSchema& schema, const ModelConfig& config,
           uint64_t seed)
    : schema_(schema),
      config_(config),
      bottom_([&] {
        Xoshiro256 rng(seed);
        return Mlp(config.bottom_mlp, rng, "bottom");
      }()),
      top_([&] {
        Xoshiro256 rng(seed + 1);
        return Mlp(config.top_mlp, rng, "top");
      }()) {
  if (!config_.step_mlp.empty()) {
    FAE_CHECK_EQ(config_.step_mlp.front(), schema.embedding_dim);
    FAE_CHECK_EQ(config_.step_mlp.back(), schema.embedding_dim);
    Xoshiro256 rng(seed + 3);
    step_mlp_.emplace(config_.step_mlp, rng, "step");
  }
  FAE_CHECK(schema_.sequential) << "TBSM requires a sequential schema";
  FAE_CHECK_GE(schema_.num_tables(), 1u);
  FAE_CHECK_EQ(config_.bottom_mlp.back(), schema_.embedding_dim);
  const size_t d = schema_.embedding_dim;
  FAE_CHECK_EQ(config_.top_mlp.front(),
               3 * d + (schema_.num_tables() - 1) * d);
  Xoshiro256 rng(seed + 2);
  tables_.reserve(schema_.num_tables());
  for (uint64_t rows : schema_.table_rows) {
    tables_.emplace_back(rows, d, rng);
  }
}

std::vector<Tbsm::SequenceView> Tbsm::SplitSequences(const BatchView& batch) {
  const std::span<const uint32_t> offsets = batch.offsets(0);
  // The view's offsets are absolute positions into the backing dataset's
  // index buffer; rebasing by the front makes them positions into
  // batch.indices(0).
  const uint32_t base = offsets.front();
  std::vector<SequenceView> views(batch.batch_size());
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    const uint32_t begin = offsets[i] - base;
    const uint32_t end = offsets[i + 1] - base;
    FAE_CHECK_GT(end, begin) << "TBSM input needs at least one item lookup";
    SequenceView& v = views[i];
    v.target = end - 1;
    v.begin = begin;
    // Singleton sequences attend over the target itself.
    v.history_len = (end - begin > 1) ? (end - begin - 1) : 1;
  }
  return views;
}

Tensor Tbsm::ForwardImpl(const BatchView& batch,
                         const std::vector<const EmbeddingTable*>& tables,
                         bool cache) {
  FAE_CHECK_EQ(tables.size(), schema_.num_tables());
  const size_t b = batch.batch_size();
  const size_t d = schema_.embedding_dim;
  const EmbeddingTable& item_table = *tables[0];

  std::vector<SequenceView> seq = SplitSequences(batch);
  // Target (query) embeddings and one stacked matrix of all history rows
  // (so the per-timestep MLP runs as a single GEMM over every timestep).
  Tensor query(b, d);
  size_t total_hist = 0;
  for (const SequenceView& v : seq) total_hist += v.history_len;
  Tensor stacked(total_hist, d);
  const std::span<const uint32_t> item_idx = batch.indices(0);
  size_t row = 0;
  for (size_t i = 0; i < b; ++i) {
    // ReadRowInto rather than a raw row pointer: with a compressed master
    // table the item rows may live in the quantized cold store.
    item_table.ReadRowInto(item_idx[seq[i].target], query.row(i));
    for (uint32_t j = 0; j < seq[i].history_len; ++j) {
      item_table.ReadRowInto(item_idx[seq[i].begin + j], stacked.row(row++));
    }
  }
  // Per-timestep transform, then split back into per-sample matrices. The
  // training path parks the stack in a member first: the step MLP caches a
  // view of its input, which must outlive this frame.
  const Tensor* transformed = nullptr;
  Tensor transformed_local;
  if (cache) {
    cached_stacked_ = std::move(stacked);
    transformed =
        step_mlp_ ? &step_mlp_->Forward(cached_stacked_) : &cached_stacked_;
  } else if (step_mlp_) {
    transformed_local = step_mlp_->ForwardInference(stacked);
    transformed = &transformed_local;
  } else {
    transformed_local = std::move(stacked);
    transformed = &transformed_local;
  }
  std::vector<Tensor> history;
  history.reserve(b);
  row = 0;
  for (size_t i = 0; i < b; ++i) {
    Tensor z(seq[i].history_len, d);
    for (uint32_t j = 0; j < seq[i].history_len; ++j) {
      std::copy(transformed->row(row), transformed->row(row) + d, z.row(j));
      ++row;
    }
    history.push_back(std::move(z));
  }

  // Attention context. The inference path must not clobber the training
  // caches, so it uses a scratch attention instance.
  Tensor context;
  if (cache) {
    context = attention_.Forward(history, query);
  } else {
    DotAttention scratch;
    context = scratch.Forward(history, query);
  }

  // Remaining tables: pooled single lookups.
  std::vector<Tensor> pooled;
  pooled.reserve(schema_.num_tables() - 1);
  for (size_t t = 1; t < schema_.num_tables(); ++t) {
    pooled.push_back(EmbeddingBag::Forward(*tables[t], batch.indices(t),
                                           batch.offsets(t), pool_));
  }

  std::vector<const Tensor*> blocks;
  Tensor logits;
  if (cache) {
    const Tensor& bottom_out = bottom_.Forward(batch.dense);
    blocks = {&context, &query, &bottom_out};
    for (const Tensor& p : pooled) blocks.push_back(&p);
    // The top MLP caches a view of its input — persist it in a member.
    ConcatColsInto(cached_top_in_, blocks);
    logits = top_.Forward(cached_top_in_);
    cached_seq_ = std::move(seq);
  } else {
    Tensor bottom_out = bottom_.ForwardInference(batch.dense);
    blocks = {&context, &query, &bottom_out};
    for (const Tensor& p : pooled) blocks.push_back(&p);
    Tensor top_in = ConcatCols(blocks);
    logits = top_.ForwardInference(top_in);
  }
  return logits;
}

StepResult Tbsm::StepImpl(const BatchView& batch,
                          const std::vector<EmbeddingTable*>& tables,
                          const SparseApplyFn* apply) {
  std::vector<const EmbeddingTable*> ctables(tables.begin(), tables.end());
  Tensor logits = ForwardImpl(batch, ctables, /*cache=*/true);
  BceResult bce = BceWithLogits(logits, batch.labels);

  const size_t d = schema_.embedding_dim;
  const Tensor& g_top_in = top_.Backward(bce.grad_logits);
  std::vector<size_t> widths(2 + schema_.num_tables(), d);
  std::vector<Tensor> split = SplitCols(g_top_in, widths);
  Tensor& g_context = split[0];
  Tensor& g_query = split[1];
  Tensor& g_bottom = split[2];

  bottom_.Backward(g_bottom);

  DotAttention::BackwardResult attn = attention_.Backward(g_context);
  // Total query gradient: direct concat path + attention path.
  g_query.Add(attn.grad_query);

  // Per-timestep MLP backward over the stacked history gradients.
  size_t total_hist = 0;
  for (const SequenceView& v : cached_seq_) total_hist += v.history_len;
  Tensor stacked_grad(total_hist, d);
  {
    size_t row = 0;
    for (size_t i = 0; i < batch.batch_size(); ++i) {
      const Tensor& gh = attn.grad_history[i];
      for (size_t j = 0; j < gh.rows(); ++j) {
        std::copy(gh.row(j), gh.row(j) + d, stacked_grad.row(row++));
      }
    }
  }
  const Tensor& raw_hist_grad =
      step_mlp_ ? step_mlp_->Backward(stacked_grad) : stacked_grad;

  StepResult result;
  result.loss = bce.mean_loss;
  result.correct = bce.correct;
  result.batch_size = batch.batch_size();

  // Item table: the history/target contributions form a synthesized lookup
  // list (one gradient row per contribution, unit offsets) so the shared
  // bag backward — or the fused scatter+optimizer — handles the scatter.
  // Rows are emitted in the same per-sample order (history, then target)
  // the scalar implementation accumulated them.
  const std::span<const uint32_t> item_idx = batch.indices(0);
  const size_t total_contrib = total_hist + batch.batch_size();
  Tensor item_grad_out(total_contrib, d);
  std::vector<uint32_t> item_scatter_idx(total_contrib);
  std::vector<uint32_t> item_scatter_off(total_contrib + 1);
  {
    size_t r = 0;
    size_t hist_row = 0;
    for (size_t i = 0; i < batch.batch_size(); ++i) {
      const SequenceView& v = cached_seq_[i];
      for (uint32_t j = 0; j < v.history_len; ++j) {
        item_scatter_idx[r] = item_idx[v.begin + j];
        const float* g = raw_hist_grad.row(hist_row++);
        std::copy(g, g + d, item_grad_out.row(r));
        ++r;
      }
      item_scatter_idx[r] = item_idx[v.target];
      const float* g = g_query.row(i);
      std::copy(g, g + d, item_grad_out.row(r));
      ++r;
    }
    FAE_CHECK_EQ(r, total_contrib);
    for (size_t i = 0; i <= total_contrib; ++i) {
      item_scatter_off[i] = static_cast<uint32_t>(i);
    }
  }

  if (apply != nullptr) {
    (*apply)(0, item_grad_out, item_scatter_idx, item_scatter_off);
    for (size_t t = 1; t < schema_.num_tables(); ++t) {
      (*apply)(t, split[2 + t], batch.indices(t), batch.offsets(t));
    }
  } else {
    result.table_grads.resize(schema_.num_tables());
    result.table_grads[0] = EmbeddingBag::Backward(
        item_grad_out, item_scatter_idx, item_scatter_off, d, pool_);
    for (size_t t = 1; t < schema_.num_tables(); ++t) {
      result.table_grads[t] = EmbeddingBag::Backward(
          split[2 + t], batch.indices(t), batch.offsets(t), d, pool_);
    }
  }
  return result;
}

StepResult Tbsm::ForwardBackwardOn(
    const BatchView& batch, const std::vector<EmbeddingTable*>& tables) {
  return StepImpl(batch, tables, /*apply=*/nullptr);
}

StepResult Tbsm::ForwardBackwardFusedOn(
    const BatchView& batch, const std::vector<EmbeddingTable*>& tables,
    const SparseApplyFn& apply) {
  return StepImpl(batch, tables, &apply);
}

Tensor Tbsm::EvalLogits(const BatchView& batch) const {
  std::vector<const EmbeddingTable*> ctables;
  ctables.reserve(tables_.size());
  for (const EmbeddingTable& t : tables_) ctables.push_back(&t);
  // ForwardImpl only mutates caches when cache=true, so the const_cast is
  // safe for the inference path.
  return const_cast<Tbsm*>(this)->ForwardImpl(batch, ctables,
                                              /*cache=*/false);
}

std::vector<Parameter*> Tbsm::DenseParams() {
  std::vector<Parameter*> params = bottom_.Params();
  for (Parameter* p : top_.Params()) params.push_back(p);
  if (step_mlp_) {
    for (Parameter* p : step_mlp_->Params()) params.push_back(p);
  }
  return params;
}

BatchWork Tbsm::Work(const BatchView& batch) const {
  BatchWork w;
  const size_t b = batch.batch_size();
  w.batch_size = b;
  const size_t d = schema_.embedding_dim;
  w.forward_flops = bottom_.ForwardFlops(b) + top_.ForwardFlops(b);
  // Per-timestep MLP runs once per history element.
  if (step_mlp_) {
    w.forward_flops += step_mlp_->ForwardFlops(batch.indices(0).size());
  }
  // Attention: scores + context, ~4*T*d FLOPs per sample.
  w.forward_flops += 4ULL * batch.indices(0).size() * d;
  w.embedding_read_bytes = batch.TotalLookups() * d * sizeof(float);
  w.embedding_activation_bytes =
      static_cast<uint64_t>(b) * (2 + schema_.num_tables()) * d *
      sizeof(float);
  w.dense_param_count = bottom_.NumParams() + top_.NumParams();
  for (size_t t = 0; t < schema_.num_tables(); ++t) {
    const std::span<const uint32_t> idx = batch.indices(t);
    const size_t distinct = work_distinct_.Count(idx);
    w.touched_rows += distinct;
    w.per_table_lookups.push_back(idx.size());
    w.per_table_touched.push_back(distinct);
  }
  w.touched_bytes = w.touched_rows * d * sizeof(float);
  return w;
}

}  // namespace fae
