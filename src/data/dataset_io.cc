#include "data/dataset_io.h"

#include "util/file_io.h"
#include "util/string_util.h"

namespace fae {
namespace {

constexpr uint32_t kMagic = 0x44454146;  // "FAED"
// v2 added the crash-safety envelope: atomic temp+rename writes and the
// whole-file CRC-32 footer.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kTrailer = 0x444e4544;  // "DEND"

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

  // Streams the flat SoA buffers directly. The on-disk layout is the
  // historical per-sample one byte for byte: each length-prefixed vector
  // is WriteU64(size) + raw bytes, which the flat spans provide without
  // materializing any per-sample object.
  const FlatDataset& flat = dataset.flat();
  FAE_RETURN_IF_ERROR(w.WriteU64(flat.size()));
  for (size_t i = 0; i < flat.size(); ++i) {
    FAE_RETURN_IF_ERROR(w.WriteU64(s.num_dense));
    FAE_RETURN_IF_ERROR(
        w.WriteBytes(flat.dense_row(i), s.num_dense * sizeof(float)));
    for (size_t t = 0; t < s.num_tables(); ++t) {
      const std::span<const uint32_t> l = flat.lookups(t, i);
      FAE_RETURN_IF_ERROR(w.WriteU64(l.size()));
      FAE_RETURN_IF_ERROR(w.WriteBytes(l.data(), l.size() * sizeof(uint32_t)));
    }
    FAE_RETURN_IF_ERROR(w.WriteF32(flat.label(i)));
  }
  FAE_RETURN_IF_ERROR(w.WriteU32(kTrailer));
  const uint32_t crc = w.crc();
  FAE_RETURN_IF_ERROR(w.WriteU32(crc));
  return w.Commit();
}

StatusOr<Dataset> DatasetIo::Load(const std::string& path) {
  // Whole-file checksum first: corruption anywhere in the file is caught
  // before any samples are deserialized.
  FAE_RETURN_IF_ERROR(VerifyFileIntegrity(path));
  FAE_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  FAE_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return Status::DataLoss("not a FAE dataset file: " + path);
  }
  FAE_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kVersion) {
    return Status::DataLoss(
        StrFormat("unsupported dataset format version %u", version));
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

  FAE_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  // Deserializes straight into the flat builder — the per-sample vectors
  // that the v2 format length-prefixes land in the contiguous SoA buffers
  // without an AoS intermediate.
  FlatDataset flat(s);
  std::vector<float> dense_buf;
  std::vector<uint32_t> index_buf;
  for (uint64_t i = 0; i < count; ++i) {
    FAE_ASSIGN_OR_RETURN(dense_buf, r.ReadVector<float>());
    if (dense_buf.size() != s.num_dense) {
      return Status::DataLoss("dense width mismatch in dataset file");
    }
    for (float v : dense_buf) flat.AppendDense(v);
    for (size_t t = 0; t < s.num_tables(); ++t) {
      FAE_ASSIGN_OR_RETURN(index_buf, r.ReadVector<uint32_t>());
      for (uint32_t row : index_buf) {
        if (row >= s.table_rows[t]) {
          return Status::DataLoss("lookup out of table range in dataset file");
        }
        flat.AppendLookup(t, row);
      }
    }
    FAE_ASSIGN_OR_RETURN(float label, r.ReadF32());
    flat.FinishSample(label);
  }
  FAE_ASSIGN_OR_RETURN(uint32_t trailer, r.ReadU32());
  if (trailer != kTrailer) {
    return Status::DataLoss("dataset file trailer missing (truncated?)");
  }
  return Dataset(std::move(flat));
}

}  // namespace fae
