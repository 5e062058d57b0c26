#include "data/flat_dataset.h"

#include <algorithm>

namespace fae {

FlatDataset::FlatDataset(DatasetSchema schema) : schema_(std::move(schema)) {
  indices_.resize(schema_.num_tables());
  offsets_.assign(schema_.num_tables(), std::vector<uint32_t>(1, 0));
}

FlatDataset FlatDataset::FromColumns(
    DatasetSchema schema, std::vector<float> dense, std::vector<float> labels,
    std::vector<std::vector<uint32_t>> offsets,
    std::vector<std::vector<uint32_t>> indices) {
  const size_t n = labels.size();
  FAE_CHECK_EQ(dense.size(), n * schema.num_dense);
  FAE_CHECK_EQ(offsets.size(), schema.num_tables());
  FAE_CHECK_EQ(indices.size(), schema.num_tables());
  FlatDataset flat;
  for (size_t t = 0; t < indices.size(); ++t) {
    FAE_CHECK_EQ(offsets[t].size(), n + 1);
    FAE_CHECK_EQ(offsets[t].front(), 0u);
    FAE_CHECK_EQ(offsets[t].back(), indices[t].size());
    flat.total_lookups_ += indices[t].size();
  }
  flat.schema_ = std::move(schema);
  flat.dense_ = std::move(dense);
  flat.labels_ = std::move(labels);
  flat.offsets_ = std::move(offsets);
  flat.indices_ = std::move(indices);
  return flat;
}

void FlatDataset::FinishSample(float label) {
  FAE_CHECK_EQ(dense_.size(), (labels_.size() + 1) * schema_.num_dense)
      << "AppendDense count does not match the schema's dense width";
  for (size_t t = 0; t < indices_.size(); ++t) {
    offsets_[t].push_back(static_cast<uint32_t>(indices_[t].size()));
    total_lookups_ += offsets_[t][labels_.size() + 1] - offsets_[t][labels_.size()];
  }
  labels_.push_back(label);
}

void FlatDataset::Reserve(size_t num_samples,
                          const std::vector<size_t>& lookups_per_table) {
  dense_.reserve(num_samples * schema_.num_dense);
  labels_.reserve(num_samples);
  for (size_t t = 0; t < indices_.size(); ++t) {
    offsets_[t].reserve(num_samples + 1);
    if (t < lookups_per_table.size()) {
      indices_[t].reserve(lookups_per_table[t]);
    }
  }
}

uint64_t FlatDataset::NumLookups(size_t i) const {
  uint64_t n = 0;
  for (size_t t = 0; t < offsets_.size(); ++t) {
    n += offsets_[t][i + 1] - offsets_[t][i];
  }
  return n;
}

FlatDataset FlatDataset::Gather(std::span<const uint64_t> ids) const {
  FlatDataset out(schema_);
  GatherInto(ids, &out);
  return out;
}

void FlatDataset::GatherInto(std::span<const uint64_t> ids,
                             FlatDataset* out) const {
  FAE_CHECK(out != nullptr);
  FAE_CHECK(out != this);
  const size_t n = ids.size();
  const size_t nd = schema_.num_dense;
  for (uint64_t id : ids) FAE_CHECK_LT(id, size());

  // A reused workspace may come from a different (or differently-shaped)
  // source: take this dataset's schema and resize the per-table buffer
  // lists to match before the columnar passes below overwrite them.
  out->schema_ = schema_;
  out->indices_.resize(schema_.num_tables());
  out->offsets_.resize(schema_.num_tables());
  out->total_lookups_ = 0;

  // Columnar copy: one streaming pass per destination buffer (dense,
  // labels, then each table's offsets + indices) instead of touching every
  // table's arrays per sample. Each destination is sized exactly and
  // written front to back — nothing from a previous fill of the workspace
  // survives, and capacity is reused so steady-state refills are
  // allocation-free.
  out->dense_.resize(n * nd);
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(dense_row(ids[i]), nd, out->dense_.data() + i * nd);
  }
  out->labels_.resize(n);
  for (size_t i = 0; i < n; ++i) out->labels_[i] = labels_[ids[i]];

  for (size_t t = 0; t < schema_.num_tables(); ++t) {
    const std::vector<uint32_t>& src_off = offsets_[t];
    const std::vector<uint32_t>& src_idx = indices_[t];
    std::vector<uint32_t>& dst_off = out->offsets_[t];
    std::vector<uint32_t>& dst_idx = out->indices_[t];
    dst_off.resize(n + 1);
    dst_off[0] = 0;
    size_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += src_off[ids[i] + 1] - src_off[ids[i]];
      dst_off[i + 1] = static_cast<uint32_t>(total);
    }
    dst_idx.resize(total);
    uint32_t* dst = dst_idx.data();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t b = src_off[ids[i]];
      const uint32_t e = src_off[ids[i] + 1];
      dst = std::copy(src_idx.data() + b, src_idx.data() + e, dst);
    }
    out->total_lookups_ += total;
  }
}

}  // namespace fae
