#include "data/dataset_io.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/file_io.h"
#include "util/string_util.h"

namespace fae {
namespace {

constexpr uint32_t kMagic = 0x44454146;  // "FAED"
// v2 added the crash-safety envelope: atomic temp+rename writes and the
// whole-file CRC-32 footer. v3 keeps the envelope and stores FlatDataset's
// columns as raw sections instead of length-prefixed vectors per sample.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kTrailer = 0x444e4544;  // "DEND"

/// `*total += count * width`; false (and `*total` unchanged) on overflow.
bool AddBytes(uint64_t count, uint64_t width, uint64_t* total) {
  if (width != 0 &&
      count > (std::numeric_limits<uint64_t>::max() - *total) / width) {
    return false;
  }
  *total += count * width;
  return true;
}

template <typename T>
Status WriteSection(BinaryWriter& w, std::span<const T> column) {
  return w.WriteBytes(column.data(), column.size_bytes());
}

template <typename T>
Status ReadSection(BinaryReader& r, std::vector<T>& column) {
  return r.ReadBytes(column.data(), column.size() * sizeof(T));
}

/// Offsets start at 0, never decrease, and end at `lookups`. The scan has
/// no data-dependent branch, so it vectorizes.
bool ValidOffsets(std::span<const uint32_t> offsets, uint64_t lookups) {
  uint32_t decreases = 0;
  for (size_t i = 1; i < offsets.size(); ++i) {
    decreases |= static_cast<uint32_t>(offsets[i] < offsets[i - 1]);
  }
  return decreases == 0 && offsets.front() == 0 && offsets.back() == lookups;
}

/// Every index is below `rows` (a branch-free max, then one compare).
bool IndicesInRange(std::span<const uint32_t> indices, uint64_t rows) {
  uint32_t hi = 0;
  for (uint32_t row : indices) hi = std::max(hi, row);
  return indices.empty() || hi < rows;
}

}  // namespace

Status DatasetIo::Save(const std::string& path, const Dataset& dataset) {
  FAE_ASSIGN_OR_RETURN(BinaryWriter w, BinaryWriter::OpenAtomic(path));
  FAE_RETURN_IF_ERROR(w.WriteU32(kMagic));
  FAE_RETURN_IF_ERROR(w.WriteU32(kVersion));

  const DatasetSchema& s = dataset.schema();
  FAE_RETURN_IF_ERROR(w.WriteString(s.name));
  FAE_RETURN_IF_ERROR(w.WriteU32(static_cast<uint32_t>(s.kind)));
  FAE_RETURN_IF_ERROR(w.WriteU64(s.num_dense));
  FAE_RETURN_IF_ERROR(w.WriteVector(s.table_rows));
  FAE_RETURN_IF_ERROR(w.WriteU64(s.embedding_dim));
  FAE_RETURN_IF_ERROR(w.WriteU32(s.sequential ? 1 : 0));
  FAE_RETURN_IF_ERROR(w.WriteU64(s.max_history));

  // The sample count and each table's lookup count size every section, so
  // a reader can check them against the file size before allocating.
  const FlatDataset& flat = dataset.flat();
  FAE_RETURN_IF_ERROR(w.WriteU64(flat.size()));
  for (size_t t = 0; t < s.num_tables(); ++t) {
    FAE_RETURN_IF_ERROR(w.WriteU64(flat.indices(t).size()));
  }
  // The sections are FlatDataset's own buffers, streamed from its spans.
  FAE_RETURN_IF_ERROR(WriteSection(w, flat.dense_data()));
  FAE_RETURN_IF_ERROR(WriteSection(w, flat.labels()));
  for (size_t t = 0; t < s.num_tables(); ++t) {
    FAE_RETURN_IF_ERROR(WriteSection(w, flat.offsets(t)));
    FAE_RETURN_IF_ERROR(WriteSection(w, flat.indices(t)));
  }
  FAE_RETURN_IF_ERROR(w.WriteU32(kTrailer));
  const uint32_t crc = w.crc();
  FAE_RETURN_IF_ERROR(w.WriteU32(crc));
  return w.Commit();
}

StatusOr<Dataset> DatasetIo::Load(const std::string& path) {
  // One pass over the file. The header's sizes are checked against the
  // file size before anything is allocated; each section is read into its
  // final column while the reader folds it into the running CRC; nothing
  // is adopted before the CRC and the range checks pass.
  FAE_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  FAE_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return Status::DataLoss("not a FAE dataset file: " + path);
  }
  FAE_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kVersion) {
    return Status::DataLoss(StrFormat(
        "unsupported dataset format version %u (this build reads version "
        "%u); regenerate the file with `fae generate`",
        version, kVersion));
  }

  DatasetSchema s;
  FAE_ASSIGN_OR_RETURN(s.name, r.ReadString());
  FAE_ASSIGN_OR_RETURN(uint32_t kind, r.ReadU32());
  if (kind > static_cast<uint32_t>(WorkloadKind::kTerabyteDlrm)) {
    return Status::DataLoss("invalid workload kind in dataset file");
  }
  s.kind = static_cast<WorkloadKind>(kind);
  FAE_ASSIGN_OR_RETURN(s.num_dense, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(s.table_rows, r.ReadVector<uint64_t>());
  FAE_ASSIGN_OR_RETURN(s.embedding_dim, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(uint32_t sequential, r.ReadU32());
  s.sequential = sequential != 0;
  FAE_ASSIGN_OR_RETURN(s.max_history, r.ReadU64());
  if (s.num_tables() == 0 || s.embedding_dim == 0) {
    return Status::DataLoss("degenerate schema in dataset file");
  }
  const size_t tables = s.num_tables();

  FAE_ASSIGN_OR_RETURN(const uint64_t n, r.ReadU64());
  std::vector<uint64_t> lookups(tables);
  FAE_RETURN_IF_ERROR(r.ReadBytes(lookups.data(), tables * sizeof(uint64_t)));

  uint64_t dense_count = 0;
  uint64_t bytes = 2 * sizeof(uint32_t);  // trailer + CRC footer
  bool sized = AddBytes(n, s.num_dense, &dense_count) &&
               AddBytes(dense_count, sizeof(float), &bytes) &&
               AddBytes(n, sizeof(float), &bytes);
  for (size_t t = 0; sized && t < tables; ++t) {
    sized = AddBytes(n + 1, sizeof(uint32_t), &bytes) &&
            AddBytes(lookups[t], sizeof(uint32_t), &bytes);
  }
  if (!sized || bytes != r.RemainingBytes()) {
    return Status::DataLoss(
        "dataset file size does not match its header (truncated or "
        "corrupted): " + path);
  }

  std::vector<float> dense(dense_count);
  std::vector<float> labels(n);
  std::vector<std::vector<uint32_t>> offsets(tables);
  std::vector<std::vector<uint32_t>> indices(tables);
  FAE_RETURN_IF_ERROR(ReadSection(r, dense));
  FAE_RETURN_IF_ERROR(ReadSection(r, labels));
  for (size_t t = 0; t < tables; ++t) {
    offsets[t].resize(n + 1);
    FAE_RETURN_IF_ERROR(ReadSection(r, offsets[t]));
    indices[t].resize(lookups[t]);
    FAE_RETURN_IF_ERROR(ReadSection(r, indices[t]));
  }
  FAE_ASSIGN_OR_RETURN(uint32_t trailer, r.ReadU32());
  const uint32_t crc = r.crc();
  FAE_ASSIGN_OR_RETURN(uint32_t stored, r.ReadU32());
  if (crc != stored) {
    return Status::DataLoss(
        "checksum mismatch (file is corrupted or truncated): " + path);
  }
  if (trailer != kTrailer) {
    return Status::DataLoss("dataset file trailer missing: " + path);
  }

  for (size_t t = 0; t < tables; ++t) {
    if (!ValidOffsets(offsets[t], lookups[t])) {
      return Status::DataLoss("malformed lookup offsets in dataset file");
    }
    if (!IndicesInRange(indices[t], s.table_rows[t])) {
      return Status::DataLoss("lookup out of table range in dataset file");
    }
  }
  return Dataset(FlatDataset::FromColumns(std::move(s), std::move(dense),
                                          std::move(labels),
                                          std::move(offsets),
                                          std::move(indices)));
}

}  // namespace fae
