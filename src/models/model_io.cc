#include "models/model_io.h"

#include <algorithm>
#include <cstring>

#include "util/file_io.h"
#include "util/string_util.h"

namespace fae {
namespace {

constexpr uint32_t kMagic = 0x4d454146;  // "FAEM"
// v2 added the crash-safety envelope: atomic temp+rename writes and the
// whole-file CRC-32 footer. v3 added the per-table storage-mode tag and
// the verbatim quantized cold-store sections. v4 added the per-table
// layout word: a section holds the whole table or (row id, row) pairs.
constexpr uint32_t kVersion = 4;
constexpr uint32_t kTrailer = 0x444e454d;  // "MEND"

enum class Layout : uint32_t { kWhole = 0, kRows = 1 };

// Row sections move through a buffer of this many bytes, never one the
// size of the table.
constexpr size_t kRowChunkBytes = 64 << 10;

/// The (row id, row) pairs of `ids`, streamed in chunks.
Status WriteRows(BinaryWriter& w, const EmbeddingTable& t,
                 const std::vector<uint32_t>& ids) {
  FAE_RETURN_IF_ERROR(w.WriteU64(ids.size()));
  const size_t row_bytes = t.dim() * sizeof(float);
  const size_t record = sizeof(uint32_t) + row_bytes;
  std::vector<unsigned char> chunk(std::max(record, kRowChunkBytes));
  size_t used = 0;
  for (uint32_t id : ids) {
    if (used + record > chunk.size()) {
      FAE_RETURN_IF_ERROR(w.WriteBytes(chunk.data(), used));
      used = 0;
    }
    std::memcpy(chunk.data() + used, &id, sizeof(id));
    std::memcpy(chunk.data() + used + sizeof(id), t.row(id), row_bytes);
    used += record;
  }
  return w.WriteBytes(chunk.data(), used);
}

/// Overwrites the rows a row section names, read in chunks.
Status ReadRows(BinaryReader& r, EmbeddingTable& t) {
  FAE_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  const size_t row_bytes = t.dim() * sizeof(float);
  const size_t record = sizeof(uint32_t) + row_bytes;
  if (count > t.rows() || count > r.RemainingBytes() / record) {
    return Status::DataLoss("row count exceeds the table or file remainder");
  }
  if (t.compressed()) {
    return Status::FailedPrecondition(
        "cannot apply rows to a compressed table");
  }
  const size_t per_chunk = std::max<size_t>(1, kRowChunkBytes / record);
  std::vector<unsigned char> chunk(std::min<uint64_t>(count, per_chunk) *
                                   record);
  for (uint64_t done = 0; done < count;) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(count - done, per_chunk));
    FAE_RETURN_IF_ERROR(r.ReadBytes(chunk.data(), n * record));
    for (size_t i = 0; i < n; ++i) {
      const unsigned char* rec = chunk.data() + i * record;
      uint32_t id = 0;
      std::memcpy(&id, rec, sizeof(id));
      if (id >= t.rows()) return Status::DataLoss("row id out of range");
      std::memcpy(t.row(id), rec + sizeof(id), row_bytes);
    }
    done += n;
  }
  return Status::OK();
}

Status WriteTable(BinaryWriter& w, const EmbeddingTable& t,
                  const std::vector<uint32_t>* ids) {
  FAE_RETURN_IF_ERROR(w.WriteU64(t.rows()));
  FAE_RETURN_IF_ERROR(w.WriteU64(t.dim()));
  FAE_RETURN_IF_ERROR(
      w.WriteU32(static_cast<uint32_t>(t.cold_precision())));
  // A compressed store goes in whole: its rows are not fp32 images.
  const bool rows = ids != nullptr && !t.compressed();
  FAE_RETURN_IF_ERROR(w.WriteU32(
      static_cast<uint32_t>(rows ? Layout::kRows : Layout::kWhole)));
  if (rows) return WriteRows(w, t, *ids);
  if (!t.compressed()) {
    return w.WriteBytes(t.raw().data(), t.raw().size() * sizeof(float));
  }
  if (t.staged_count() != 0) {
    return Status::FailedPrecondition(
        "cannot checkpoint a table with staged cold rows (FlushStaged "
        "before saving)");
  }
  // Verbatim quantized sections (see the header comment on bit-stability),
  // all fed through the writer's running CRC like every other artifact.
  FAE_RETURN_IF_ERROR(w.WriteVector(t.slot_map()));
  FAE_RETURN_IF_ERROR(w.WriteVector(t.resident_data()));
  FAE_RETURN_IF_ERROR(w.WriteVector(t.cold_codes_i8()));
  FAE_RETURN_IF_ERROR(w.WriteVector(t.cold_half()));
  FAE_RETURN_IF_ERROR(w.WriteVector(t.cold_scale()));
  return w.WriteVector(t.cold_zero());
}

Status ReadTable(BinaryReader& r, EmbeddingTable& t, bool allow_rows) {
  FAE_ASSIGN_OR_RETURN(uint64_t rows, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(uint64_t dim, r.ReadU64());
  if (rows != t.rows() || dim != t.dim()) {
    return Status::FailedPrecondition("checkpoint table shape mismatch");
  }
  FAE_ASSIGN_OR_RETURN(uint32_t mode, r.ReadU32());
  if (mode > static_cast<uint32_t>(ColdPrecision::kInt8)) {
    return Status::DataLoss("unknown table storage mode");
  }
  FAE_ASSIGN_OR_RETURN(uint32_t layout, r.ReadU32());
  if (layout > static_cast<uint32_t>(Layout::kRows) ||
      (layout == static_cast<uint32_t>(Layout::kRows) &&
       mode != static_cast<uint32_t>(ColdPrecision::kFp32))) {
    return Status::DataLoss("unknown table section layout");
  }
  if (layout == static_cast<uint32_t>(Layout::kRows)) {
    if (!allow_rows) {
      return Status::DataLoss("a row section in a file that must hold whole "
                              "tables");
    }
    return ReadRows(r, t);
  }
  const ColdPrecision precision = static_cast<ColdPrecision>(mode);
  if (precision == ColdPrecision::kFp32) {
    // Whole fp32 sections restore plain tables only: a compressed table
    // here was restored by an earlier save of the same chain, which keeps
    // its storage mode throughout.
    if (t.compressed()) {
      return Status::FailedPrecondition(
          "cannot restore an fp32 section into a compressed table");
    }
    return r.ReadBytes(t.raw().data(), t.raw().size() * sizeof(float));
  }
  FAE_ASSIGN_OR_RETURN(std::vector<uint32_t> slot, r.ReadVector<uint32_t>());
  FAE_ASSIGN_OR_RETURN(std::vector<float> resident, r.ReadVector<float>());
  FAE_ASSIGN_OR_RETURN(std::vector<uint8_t> codes, r.ReadVector<uint8_t>());
  FAE_ASSIGN_OR_RETURN(std::vector<uint16_t> half, r.ReadVector<uint16_t>());
  FAE_ASSIGN_OR_RETURN(std::vector<float> scale, r.ReadVector<float>());
  FAE_ASSIGN_OR_RETURN(std::vector<float> zero, r.ReadVector<float>());
  // Section-size validation before any state is adopted (the CRC already
  // rules out corruption; this guards against writer/reader skew).
  if (slot.size() != rows) {
    return Status::DataLoss("slot map size mismatch");
  }
  uint64_t hot = 0;
  for (uint32_t s : slot) hot += (s & 0x80000000u) == 0 ? 1 : 0;
  const uint64_t cold = rows - hot;
  if (resident.size() != hot * dim) {
    return Status::DataLoss("resident section size mismatch");
  }
  const bool int8 = precision == ColdPrecision::kInt8;
  if (int8 && (codes.size() != cold * dim || scale.size() != cold ||
               zero.size() != cold || !half.empty())) {
    return Status::DataLoss("int8 cold-store section size mismatch");
  }
  if (!int8 && (half.size() != cold * dim || !codes.empty() ||
                !scale.empty() || !zero.empty())) {
    return Status::DataLoss("fp16 cold-store section size mismatch");
  }
  t.RestoreCompressed(precision, std::move(slot), std::move(resident),
                      std::move(codes), std::move(half), std::move(scale),
                      std::move(zero));
  return Status::OK();
}

}  // namespace

Status ModelIo::WriteModelState(
    BinaryWriter& w, RecModel& model,
    const std::vector<std::vector<uint32_t>>* rows) {
  const std::vector<Parameter*> params = model.DenseParams();
  FAE_RETURN_IF_ERROR(w.WriteU64(params.size()));
  for (const Parameter* p : params) {
    FAE_RETURN_IF_ERROR(w.WriteString(p->name));
    FAE_RETURN_IF_ERROR(w.WriteU64(p->value.rows()));
    FAE_RETURN_IF_ERROR(w.WriteU64(p->value.cols()));
    FAE_RETURN_IF_ERROR(
        w.WriteBytes(p->value.data(), p->value.numel() * sizeof(float)));
  }

  const std::vector<EmbeddingTable>& tables = model.tables();
  if (rows != nullptr && rows->size() != tables.size()) {
    return Status::InvalidArgument("row lists do not match the table count");
  }
  FAE_RETURN_IF_ERROR(w.WriteU64(tables.size()));
  for (size_t t = 0; t < tables.size(); ++t) {
    FAE_RETURN_IF_ERROR(
        WriteTable(w, tables[t], rows != nullptr ? &(*rows)[t] : nullptr));
  }
  return Status::OK();
}

Status ModelIo::ReadModelState(BinaryReader& r, RecModel& model,
                               bool allow_rows) {
  std::vector<Parameter*> params = model.DenseParams();
  FAE_ASSIGN_OR_RETURN(uint64_t param_count, r.ReadU64());
  if (param_count != params.size()) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint has %llu dense parameters, model has %zu",
        static_cast<unsigned long long>(param_count), params.size()));
  }
  for (Parameter* p : params) {
    FAE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    FAE_ASSIGN_OR_RETURN(uint64_t rows, r.ReadU64());
    FAE_ASSIGN_OR_RETURN(uint64_t cols, r.ReadU64());
    if (name != p->name || rows != p->value.rows() ||
        cols != p->value.cols()) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint parameter '%s' [%llux%llu] does not match model "
          "parameter '%s' [%zux%zu]",
          name.c_str(), static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(cols), p->name.c_str(),
          p->value.rows(), p->value.cols()));
    }
    FAE_RETURN_IF_ERROR(
        r.ReadBytes(p->value.data(), p->value.numel() * sizeof(float)));
  }

  std::vector<EmbeddingTable>& tables = model.tables();
  FAE_ASSIGN_OR_RETURN(uint64_t table_count, r.ReadU64());
  if (table_count != tables.size()) {
    return Status::FailedPrecondition("checkpoint table count mismatch");
  }
  for (EmbeddingTable& t : tables) {
    FAE_RETURN_IF_ERROR(ReadTable(r, t, allow_rows));
  }
  return Status::OK();
}

Status ModelIo::Save(const std::string& path, RecModel& model) {
  FAE_ASSIGN_OR_RETURN(BinaryWriter w, BinaryWriter::OpenAtomic(path));
  FAE_RETURN_IF_ERROR(w.WriteU32(kMagic));
  FAE_RETURN_IF_ERROR(w.WriteU32(kVersion));
  FAE_RETURN_IF_ERROR(WriteModelState(w, model));
  FAE_RETURN_IF_ERROR(w.WriteU32(kTrailer));
  const uint32_t crc = w.crc();
  FAE_RETURN_IF_ERROR(w.WriteU32(crc));
  return w.Commit();
}

Status ModelIo::Load(const std::string& path, RecModel& model) {
  // Verify the whole-file checksum first: any corruption is rejected
  // before a single byte reaches the model.
  FAE_RETURN_IF_ERROR(VerifyFileIntegrity(path));
  FAE_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  FAE_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return Status::DataLoss("not a FAE model checkpoint: " + path);
  }
  FAE_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kVersion) {
    return Status::DataLoss(
        StrFormat("unsupported checkpoint version %u", version));
  }
  FAE_RETURN_IF_ERROR(ReadModelState(r, model));
  FAE_ASSIGN_OR_RETURN(uint32_t trailer, r.ReadU32());
  if (trailer != kTrailer) {
    return Status::DataLoss("checkpoint trailer missing (truncated?)");
  }
  return Status::OK();
}

}  // namespace fae
