#include "models/tbsm.h"

#include <algorithm>

#include "embedding/embedding_bag.h"
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
  // Fixed-shape workspace wiring; the tensors themselves size lazily.
  pooled_.resize(schema_.num_tables() - 1);
  split_.resize(2 + schema_.num_tables());
  for (Tensor& t : split_) split_outs_.push_back(&t);
  split_widths_.assign(split_.size(), d);
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

const Tensor& Tbsm::Forward(const BatchView& batch,
                            const std::vector<EmbeddingTable*>& tables) {
  FAE_CHECK_EQ(tables.size(), schema_.num_tables());
  const size_t b = batch.batch_size();
  const size_t d = schema_.embedding_dim;
  const EmbeddingTable& item_table = *tables[0];

  cached_seq_ = SplitSequences(batch);
  const std::vector<SequenceView>& seq = cached_seq_;
  // Target (query) embeddings and one stacked matrix of all history rows
  // (so the per-timestep MLP runs as a single GEMM over every timestep).
  Tensor query(b, d);
  size_t total_hist = 0;
  for (const SequenceView& v : seq) total_hist += v.history_len;
  cached_stacked_.Resize(total_hist, d);
  const std::span<const uint32_t> item_idx = batch.indices(0);
  size_t row = 0;
  for (size_t i = 0; i < b; ++i) {
    // ReadRowInto rather than a raw row pointer: with a compressed master
    // table the item rows may live in the quantized cold store.
    item_table.ReadRowInto(item_idx[seq[i].target], query.row(i));
    for (uint32_t j = 0; j < seq[i].history_len; ++j) {
      item_table.ReadRowInto(item_idx[seq[i].begin + j],
                             cached_stacked_.row(row++));
    }
  }
  // Per-timestep transform, then split back into per-sample matrices.
  const Tensor& transformed =
      step_mlp_ ? step_mlp_->Forward(cached_stacked_) : cached_stacked_;
  std::vector<Tensor> history;
  history.reserve(b);
  row = 0;
  for (size_t i = 0; i < b; ++i) {
    Tensor z(seq[i].history_len, d);
    for (uint32_t j = 0; j < seq[i].history_len; ++j) {
      std::copy(transformed.row(row), transformed.row(row) + d, z.row(j));
      ++row;
    }
    history.push_back(std::move(z));
  }
  const Tensor context = attention_.Forward(history, query);

  // Remaining tables: pooled single lookups.
  for (size_t t = 1; t < schema_.num_tables(); ++t) {
    EmbeddingBag::ForwardInto(pooled_[t - 1], *tables[t], batch.indices(t),
                              batch.offsets(t), pool_);
  }

  const Tensor& bottom_out = bottom_.Forward(batch.dense);
  std::vector<const Tensor*> blocks = {&context, &query, &bottom_out};
  for (const Tensor& p : pooled_) blocks.push_back(&p);
  ConcatColsInto(cached_top_in_, blocks);
  return top_.Forward(cached_top_in_);
}

StepResult Tbsm::ForwardBackwardFusedOn(
    const BatchView& batch, const std::vector<EmbeddingTable*>& tables,
    const SparseApplyFn& apply) {
  BceWithLogitsInto(bce_, Forward(batch, tables), batch.labels);

  const size_t d = schema_.embedding_dim;
  const Tensor& g_top_in = top_.Backward(bce_.grad_logits);
  SplitColsInto(split_outs_, g_top_in, split_widths_);
  Tensor& g_context = split_[0];
  Tensor& g_query = split_[1];
  Tensor& g_bottom = split_[2];

  // The bottom MLP's input is the dense features: no input gradient.
  bottom_.BackwardParamsOnly(g_bottom);

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

  // Item table: the history/target contributions form a synthesized lookup
  // list (one gradient row per contribution, unit offsets) so the sparse
  // apply handles its scatter like any other table's. Rows are emitted in
  // the same per-sample order (history, then target) the scalar
  // implementation accumulated them.
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

  apply(0, item_grad_out, item_scatter_idx, item_scatter_off);
  for (size_t t = 1; t < schema_.num_tables(); ++t) {
    apply(t, split_[2 + t], batch.indices(t), batch.offsets(t));
  }
  return StepResult{bce_.mean_loss, bce_.correct, batch.batch_size()};
}

const Tensor& Tbsm::EvalLogits(const BatchView& batch) {
  return Forward(batch, OwnTables());
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
