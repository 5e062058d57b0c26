#include "embedding/embedding_table.h"

#include <algorithm>
#include <cmath>

namespace fae {

EmbeddingTable::EmbeddingTable(uint64_t rows, size_t dim, Xoshiro256& rng)
    : rows_(rows), dim_(dim), data_(rows * dim) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(std::max<uint64_t>(rows, 1)));
  for (float& v : data_) {
    v = (rng.NextFloat() * 2.0f - 1.0f) * bound;
  }
}

EmbeddingTable::EmbeddingTable(uint64_t rows, size_t dim)
    : rows_(rows), dim_(dim), data_(rows * dim, 0.0f) {}

void EmbeddingTable::ReadRowInto(uint64_t r, float* FAE_RESTRICT dst) const {
  FAE_CHECK_LT(r, rows_);
  if (precision_ == ColdPrecision::kFp32) {
    const float* src = data_.data() + r * dim_;
    std::copy(src, src + dim_, dst);
    return;
  }
  const uint32_t s = slot_[r];
  if ((s & kColdTag) == 0) {
    const float* src = data_.data() + static_cast<size_t>(s) * dim_;
    std::copy(src, src + dim_, dst);
  } else if (precision_ == ColdPrecision::kInt8) {
    const size_t c = s & ~kColdTag;
    kernels::DequantRowI8(dim_, q8_.data() + c * dim_, scale_[c], zero_[c],
                          dst);
  } else {
    const size_t c = s & ~kColdTag;
    kernels::DequantRowF16(dim_, q16_.data() + c * dim_, dst);
  }
}

void EmbeddingTable::CopyRowFrom(const EmbeddingTable& src, uint64_t src_row,
                                 uint64_t dst_row) {
  FAE_CHECK_EQ(src.dim_, dim_);
  src.ReadRowInto(src_row, row(dst_row));
}

void EmbeddingTable::CompressCold(std::span<const uint8_t> hot_mask,
                                  ColdPrecision precision) {
  FAE_CHECK(!compressed()) << "table is already compressed";
  FAE_CHECK(precision != ColdPrecision::kFp32);
  FAE_CHECK_EQ(hot_mask.size(), rows_);
  FAE_CHECK_LT(rows_, static_cast<uint64_t>(kColdTag));

  uint64_t cold = 0;
  for (uint64_t r = 0; r < rows_; ++r) cold += hot_mask[r] == 0;
  slot_.resize(rows_);
  if (precision == ColdPrecision::kInt8) {
    q8_.resize(cold * dim_);
    scale_.resize(cold);
    zero_.resize(cold);
  } else {
    q16_.resize(cold * dim_);
  }

  // One ascending pass: hot rows compact in place (the destination slot is
  // never past the read cursor), cold rows quantize out of the fp32 buffer
  // before it shrinks.
  uint32_t next_hot = 0;
  uint32_t next_cold = 0;
  for (uint64_t r = 0; r < rows_; ++r) {
    const float* src = data_.data() + r * dim_;
    if (hot_mask[r] != 0) {
      float* dst = data_.data() + static_cast<size_t>(next_hot) * dim_;
      if (dst != src) std::copy(src, src + dim_, dst);
      slot_[r] = next_hot++;
    } else if (precision == ColdPrecision::kInt8) {
      kernels::QuantizeRowI8(dim_, src,
                             q8_.data() + static_cast<size_t>(next_cold) * dim_,
                             &scale_[next_cold], &zero_[next_cold]);
      slot_[r] = kColdTag | next_cold++;
    } else {
      kernels::QuantizeRowF16(
          dim_, src, q16_.data() + static_cast<size_t>(next_cold) * dim_);
      slot_[r] = kColdTag | next_cold++;
    }
  }
  hot_slots_ = next_hot;
  cold_rows_ = cold;
  data_.resize(static_cast<size_t>(next_hot) * dim_);
  data_.shrink_to_fit();  // the RSS reclaim the compression is for
  precision_ = precision;
}

void EmbeddingTable::Decompress() {
  if (!compressed()) return;
  std::vector<float> full(static_cast<size_t>(rows_) * dim_);
  for (uint64_t r = 0; r < rows_; ++r) {
    ReadRowInto(r, full.data() + r * dim_);
  }
  data_ = std::move(full);
  precision_ = ColdPrecision::kFp32;
  hot_slots_ = 0;
  cold_rows_ = 0;
  slot_.clear();
  slot_.shrink_to_fit();
  q8_.clear();
  q8_.shrink_to_fit();
  scale_.clear();
  scale_.shrink_to_fit();
  zero_.clear();
  zero_.shrink_to_fit();
  q16_.clear();
  q16_.shrink_to_fit();
  staged_.clear();
  staged_.shrink_to_fit();
}

float* EmbeddingTable::EnsureResidentRow(uint64_t r) {
  FAE_CHECK_LT(r, rows_);
  if (precision_ == ColdPrecision::kFp32) return data_.data() + r * dim_;
  const uint32_t s = slot_[r];
  if ((s & kColdTag) == 0) {
    return data_.data() + static_cast<size_t>(s) * dim_;
  }
  const uint32_t cold_slot = s & ~kColdTag;
  const uint32_t fp32_slot =
      static_cast<uint32_t>(hot_slots_ + staged_.size());
  data_.resize((static_cast<size_t>(fp32_slot) + 1) * dim_);
  float* dst = data_.data() + static_cast<size_t>(fp32_slot) * dim_;
  if (precision_ == ColdPrecision::kInt8) {
    kernels::DequantRowI8(dim_,
                          q8_.data() + static_cast<size_t>(cold_slot) * dim_,
                          scale_[cold_slot], zero_[cold_slot], dst);
  } else {
    kernels::DequantRowF16(
        dim_, q16_.data() + static_cast<size_t>(cold_slot) * dim_, dst);
  }
  staged_.push_back({r, cold_slot});
  slot_[r] = fp32_slot;
  return dst;
}

void EmbeddingTable::FlushStaged() {
  if (!compressed() || staged_.empty()) return;
  for (size_t i = 0; i < staged_.size(); ++i) {
    const StagedRow& st = staged_[i];
    const float* src = data_.data() + (hot_slots_ + i) * dim_;
    if (precision_ == ColdPrecision::kInt8) {
      kernels::QuantizeRowI8(
          dim_, src, q8_.data() + static_cast<size_t>(st.cold_slot) * dim_,
          &scale_[st.cold_slot], &zero_[st.cold_slot]);
    } else {
      kernels::QuantizeRowF16(
          dim_, src, q16_.data() + static_cast<size_t>(st.cold_slot) * dim_);
    }
    slot_[st.row] = kColdTag | st.cold_slot;
  }
  // resize (not shrink_to_fit): capacity stays at the staging high-water
  // mark, so the steady state never reallocates.
  data_.resize(static_cast<size_t>(hot_slots_) * dim_);
  staged_.clear();
}

uint64_t EmbeddingTable::ColdStoreBytes() const {
  if (!compressed()) return 0;
  if (precision_ == ColdPrecision::kInt8) {
    return q8_.size() + (scale_.size() + zero_.size()) * sizeof(float);
  }
  return q16_.size() * sizeof(uint16_t);
}

uint64_t EmbeddingTable::ResidentBytes() const {
  return data_.size() * sizeof(float) + ColdStoreBytes() +
         slot_.size() * sizeof(uint32_t);
}

bool EmbeddingTable::PartitionMatches(
    std::span<const uint8_t> hot_mask) const {
  if (!compressed()) return false;
  if (hot_mask.size() != rows_ || !staged_.empty()) return false;
  for (uint64_t r = 0; r < rows_; ++r) {
    if (((slot_[r] & kColdTag) == 0) != (hot_mask[r] != 0)) return false;
  }
  return true;
}

void EmbeddingTable::RestoreCompressed(
    ColdPrecision precision, std::vector<uint32_t> slot,
    std::vector<float> resident, std::vector<uint8_t> codes_i8,
    std::vector<uint16_t> half, std::vector<float> scale,
    std::vector<float> zero) {
  FAE_CHECK(precision != ColdPrecision::kFp32);
  FAE_CHECK_EQ(slot.size(), rows_);

  uint64_t hot = 0;
  uint64_t cold = 0;
  for (uint32_t s : slot) {
    if ((s & kColdTag) == 0) {
      FAE_CHECK_LT(s, rows_);
      ++hot;
    } else {
      ++cold;
    }
  }
  FAE_CHECK_EQ(resident.size(), static_cast<size_t>(hot) * dim_);
  if (precision == ColdPrecision::kInt8) {
    FAE_CHECK_EQ(codes_i8.size(), static_cast<size_t>(cold) * dim_);
    FAE_CHECK_EQ(scale.size(), cold);
    FAE_CHECK_EQ(zero.size(), cold);
    FAE_CHECK(half.empty());
  } else {
    FAE_CHECK_EQ(half.size(), static_cast<size_t>(cold) * dim_);
    FAE_CHECK(codes_i8.empty());
    FAE_CHECK(scale.empty());
    FAE_CHECK(zero.empty());
  }

  data_ = std::move(resident);
  slot_ = std::move(slot);
  q8_ = std::move(codes_i8);
  q16_ = std::move(half);
  scale_ = std::move(scale);
  zero_ = std::move(zero);
  staged_.clear();
  hot_slots_ = hot;
  cold_rows_ = cold;
  precision_ = precision;
}

}  // namespace fae
