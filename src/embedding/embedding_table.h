#ifndef FAE_EMBEDDING_EMBEDDING_TABLE_H_
#define FAE_EMBEDDING_EMBEDDING_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "embedding/cold_precision.h"
#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/random.h"

namespace fae {

/// One embedding table: `rows` learned vectors of `dim` entries. This is
/// the memory-bound structure the paper is about — tables reach 61 GB for
/// Criteo Terabyte (Table I) and therefore live on the CPU in the baseline
/// system.
///
/// Storage has two modes:
///
///  - Plain (the default): one contiguous fp32 buffer, `row(r)` at
///    `data + r * dim`.
///  - Compressed (after CompressCold, ROADMAP item 4): hot rows stay fp32
///    in a compacted buffer, cold rows are stored row-wise quantized
///    (binary16, or int8 codes + per-row fp32 scale/zero_point), and a
///    per-row slot map routes each id to its store. Reads of cold rows
///    dequantize on the fly (AddRowTo / ReadRowInto); writes first stage
///    the row back to fp32 (EnsureResidentRow), and FlushStaged
///    requantizes every staged row at the next hot/cold sync boundary.
///    Hot rows and all optimizer state stay fp32, so the hot path is
///    bit-identical to the plain layout.
///
/// Concurrency: all read paths (AddRowTo, ReadRowInto, const row()) are
/// const and safe to share across the kernel thread pool. EnsureResidentRow
/// and FlushStaged mutate the staging area and must run serially — the
/// sparse optimizers stage every touched row up front, then update in
/// parallel over stable fp32 pointers.
class EmbeddingTable {
 public:
  /// Uniform(-1/sqrt(rows), 1/sqrt(rows)) initialization (DLRM default).
  EmbeddingTable(uint64_t rows, size_t dim, Xoshiro256& rng);

  /// Zero-initialized table (for replicas that will be filled by sync).
  EmbeddingTable(uint64_t rows, size_t dim);

  uint64_t rows() const { return rows_; }
  size_t dim() const { return dim_; }

  /// Logical size of the table's parameters in bytes (float32) — the
  /// planning metric (large-table cutoff, hot-slice budget), independent
  /// of the physical storage mode. See ResidentBytes for actual footprint.
  uint64_t SizeBytes() const { return rows_ * dim_ * sizeof(float); }

  /// fp32 storage of row `r`. On a compressed table this is valid only for
  /// resident (hot or staged) rows — cold rows have no fp32 image; stage
  /// them first with EnsureResidentRow. Pointers into a compressed table
  /// are invalidated by EnsureResidentRow and FlushStaged.
  float* row(uint64_t r) {
    FAE_CHECK_LT(r, rows_);
    if (precision_ == ColdPrecision::kFp32) return data_.data() + r * dim_;
    const uint32_t s = slot_[r];
    FAE_CHECK_EQ(s & kColdTag, 0u)
        << "cold row needs EnsureResidentRow before fp32 access";
    return data_.data() + static_cast<size_t>(s) * dim_;
  }
  const float* row(uint64_t r) const {
    FAE_CHECK_LT(r, rows_);
    if (precision_ == ColdPrecision::kFp32) return data_.data() + r * dim_;
    const uint32_t s = slot_[r];
    FAE_CHECK_EQ(s & kColdTag, 0u)
        << "cold row needs EnsureResidentRow before fp32 access";
    return data_.data() + static_cast<size_t>(s) * dim_;
  }

  /// acc[i] += row(r)[i], dequantizing in place when `r` is cold — the
  /// EmbeddingBag pooling gather. Allocation-free.
  void AddRowTo(uint64_t r, float* FAE_RESTRICT acc) const {
    FAE_CHECK_LT(r, rows_);
    if (precision_ == ColdPrecision::kFp32) {
      kernels::Add(dim_, data_.data() + r * dim_, acc);
      return;
    }
    const uint32_t s = slot_[r];
    if ((s & kColdTag) == 0) {
      kernels::Add(dim_, data_.data() + static_cast<size_t>(s) * dim_, acc);
    } else if (precision_ == ColdPrecision::kInt8) {
      const size_t c = s & ~kColdTag;
      kernels::DequantAddI8(dim_, q8_.data() + c * dim_, scale_[c], zero_[c],
                            acc);
    } else {
      const size_t c = s & ~kColdTag;
      kernels::DequantAddF16(dim_, q16_.data() + c * dim_, acc);
    }
  }

  /// dst[i] = row(r)[i], dequantizing when `r` is cold. Works in every
  /// storage mode; allocation-free.
  void ReadRowInto(uint64_t r, float* FAE_RESTRICT dst) const;

  /// Copies row `src_row` of `src` into row `dst_row` of this table
  /// (dequantizing a cold source row; the destination must be resident).
  void CopyRowFrom(const EmbeddingTable& src, uint64_t src_row,
                   uint64_t dst_row);

  /// Whole-buffer fp32 access. Only meaningful for plain storage — the
  /// serializers and the fp16-emulation path that use it are validated to
  /// never meet a compressed table.
  const std::vector<float>& raw() const {
    FAE_CHECK(!compressed()) << "raw() on a compressed table";
    return data_;
  }
  std::vector<float>& raw() {
    FAE_CHECK(!compressed()) << "raw() on a compressed table";
    return data_;
  }

  // -- Compressed cold storage ----------------------------------------------

  bool compressed() const { return precision_ != ColdPrecision::kFp32; }
  ColdPrecision cold_precision() const { return precision_; }

  /// Switches to compressed storage: rows with `hot_mask[r] != 0` keep
  /// their exact fp32 values in a compacted buffer; the rest are quantized
  /// to `precision` and their fp32 storage is released. `hot_mask` must
  /// have one byte per row; `precision` must not be kFp32; the table must
  /// be plain.
  void CompressCold(std::span<const uint8_t> hot_mask,
                    ColdPrecision precision);

  /// Back to plain fp32 storage: hot and staged rows keep their exact
  /// values, cold rows are dequantized (the legal "widening" direction of
  /// a cross-precision checkpoint resume).
  void Decompress();

  /// True when row `r` has an fp32 image (always true for plain tables).
  bool RowResident(uint64_t r) const {
    FAE_CHECK_LT(r, rows_);
    return precision_ == ColdPrecision::kFp32 || (slot_[r] & kColdTag) == 0;
  }

  /// Stages cold row `r` as fp32 for an in-place update and returns its
  /// fp32 storage (a no-op returning row(r) when already resident).
  /// Serial only; invalidates previously returned row pointers. Steady
  /// state is allocation-free once the staging buffers have grown to the
  /// largest per-sync-interval staged set.
  float* EnsureResidentRow(uint64_t r);

  /// Requantizes every staged row back into cold storage and drops its
  /// fp32 image — the cold-row writeback at hot/cold sync boundaries.
  /// Buffer capacity is kept, so the next interval stages without
  /// allocating. Serial only.
  void FlushStaged();

  size_t staged_count() const { return staged_.size(); }

  uint64_t hot_rows() const {
    return compressed() ? hot_slots_ : rows_;
  }
  uint64_t cold_rows() const { return compressed() ? cold_rows_ : 0; }

  /// Bytes of the cold store: quantized payload plus per-row scale/zero
  /// metadata (0 for plain tables). The numerator of the bench's
  /// compression gate is the same rows at fp32: cold_rows * dim * 4.
  uint64_t ColdStoreBytes() const;

  /// Actual bytes resident for this table across both stores, slot map
  /// included — what the RSS accounting sees.
  uint64_t ResidentBytes() const;

  /// True when the resident/cold split matches `hot_mask` exactly (staged
  /// rows count as mismatches). Used at checkpoint resume to reject a
  /// compressed model state whose hot/cold partition no longer matches the
  /// run's plan.
  bool PartitionMatches(std::span<const uint8_t> hot_mask) const;

  // Verbatim compressed-state access for the checkpoint serializer
  // (models/model_io.cc). Requantizing a dequantized row is not bit-stable
  // (the scale recomputation re-rounds), so same-precision resume must
  // restore these buffers exactly as written.
  const std::vector<uint32_t>& slot_map() const { return slot_; }
  const std::vector<float>& resident_data() const { return data_; }
  const std::vector<uint8_t>& cold_codes_i8() const { return q8_; }
  const std::vector<uint16_t>& cold_half() const { return q16_; }
  const std::vector<float>& cold_scale() const { return scale_; }
  const std::vector<float>& cold_zero() const { return zero_; }

  /// Restores a compressed state captured by the accessors above. The
  /// caller (ModelIo) has already validated section sizes against
  /// rows/dim; this checks internal consistency and adopts the buffers,
  /// replacing any compressed state the table held (a checkpoint chain's
  /// delta restores over its base) and dropping staged rows (checkpoints
  /// are taken at flushed sync boundaries, so none are pending).
  void RestoreCompressed(ColdPrecision precision, std::vector<uint32_t> slot,
                         std::vector<float> resident,
                         std::vector<uint8_t> codes_i8,
                         std::vector<uint16_t> half, std::vector<float> scale,
                         std::vector<float> zero);

 private:
  static constexpr uint32_t kColdTag = 0x80000000u;

  struct StagedRow {
    uint64_t row;        // table row id
    uint32_t cold_slot;  // where FlushStaged requantizes it back to
  };

  uint64_t rows_;
  size_t dim_;
  /// Plain mode: all rows. Compressed: hot_slots_ + staged_.size() rows.
  std::vector<float> data_;

  ColdPrecision precision_ = ColdPrecision::kFp32;
  uint64_t hot_slots_ = 0;
  uint64_t cold_rows_ = 0;
  /// Per row: fp32 slot index, or kColdTag | cold slot index. Empty in
  /// plain mode.
  std::vector<uint32_t> slot_;
  std::vector<uint8_t> q8_;     // int8: cold_rows_ x dim codes
  std::vector<float> scale_;    // int8: per cold row
  std::vector<float> zero_;     // int8: per cold row
  std::vector<uint16_t> q16_;   // fp16: cold_rows_ x dim
  std::vector<StagedRow> staged_;
};

}  // namespace fae

#endif  // FAE_EMBEDDING_EMBEDDING_TABLE_H_
