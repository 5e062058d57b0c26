#include "engine/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "models/model_io.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace fae {
namespace {

constexpr uint32_t kMagic = 0x43454146;  // "FAEC"
// v2: the embedded model section gained the per-table storage-mode tag
// (ModelIo v3) so quantized cold stores resume verbatim.
// v3: a staleness-tracker section (per-row EMA/visit/streak arrays plus
// the accuracy guard's adapted threshold) so stale-skip runs resume
// bit-exact. Always present; an empty section costs one word.
// v4: the timeline section lost its explicit wall-clock word (the modeled
// wall is always the phase sum minus the overlay credits).
// v5: one container for both kinds of save: a kind word after the
// version, and in a delta the link to its base (the base's iteration and
// CRC, and the delta's index), over ModelIo v4's table sections, which
// hold a whole table or (row id, row) pairs.
constexpr uint32_t kVersion = 5;
constexpr uint32_t kTrailer = 0x444e454b;  // "KEND"

using Kind = CheckpointChain::Kind;
using Saved = CheckpointChain::Saved;

/// A delta's place in its chain.
struct Link {
  uint64_t base_iteration = 0;
  uint32_t base_crc = 0;
  uint64_t index = 0;
};

struct Header {
  Kind kind = Kind::kBase;
  Link link;  // deltas only
};

Status WriteMetricState(BinaryWriter& w, const RunningMetric::State& m) {
  FAE_RETURN_IF_ERROR(w.WriteF64(m.loss_sum));
  FAE_RETURN_IF_ERROR(w.WriteU64(m.correct));
  FAE_RETURN_IF_ERROR(w.WriteU64(m.samples));
  return w.WriteU64(m.batches);
}

Status ReadMetricState(BinaryReader& r, RunningMetric::State& m) {
  FAE_ASSIGN_OR_RETURN(m.loss_sum, r.ReadF64());
  FAE_ASSIGN_OR_RETURN(m.correct, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(m.samples, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(m.batches, r.ReadU64());
  return Status::OK();
}

/// Everything of `ck` a save holds, in every kind of save.
Status WriteState(BinaryWriter& w, const TrainerCheckpoint& ck) {
  FAE_RETURN_IF_ERROR(w.WriteU32(ck.mode));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.dataset_fingerprint));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.options_fingerprint));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.epoch));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.iteration));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.batch_in_epoch));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.hot_batches));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.cold_batches));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.sync_bytes));

  for (uint64_t word : ck.rng.s) FAE_RETURN_IF_ERROR(w.WriteU64(word));
  FAE_RETURN_IF_ERROR(w.WriteU32(ck.rng.has_cached_gaussian ? 1 : 0));
  FAE_RETURN_IF_ERROR(w.WriteF64(ck.rng.cached_gaussian));

  FAE_RETURN_IF_ERROR(WriteMetricState(w, ck.metric));
  FAE_RETURN_IF_ERROR(WriteMetricState(w, ck.window));

  FAE_RETURN_IF_ERROR(w.WriteF64(ck.scheduler.rate));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.scheduler.issued_cold));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.scheduler.issued_hot));
  FAE_RETURN_IF_ERROR(w.WriteU32(ck.scheduler.next_is_hot ? 1 : 0));
  FAE_RETURN_IF_ERROR(w.WriteU32(ck.scheduler.any_issued ? 1 : 0));
  FAE_RETURN_IF_ERROR(w.WriteU32(ck.scheduler.last_was_hot ? 1 : 0));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.scheduler.transitions));
  FAE_RETURN_IF_ERROR(w.WriteU32(ck.scheduler.has_prev_loss ? 1 : 0));
  FAE_RETURN_IF_ERROR(w.WriteF64(ck.scheduler.prev_loss));
  FAE_RETURN_IF_ERROR(w.WriteU32(
      static_cast<uint32_t>(ck.scheduler.consecutive_decreases)));

  for (double s : ck.timeline.seconds) FAE_RETURN_IF_ERROR(w.WriteF64(s));
  FAE_RETURN_IF_ERROR(w.WriteF64(ck.timeline.cpu_busy));
  FAE_RETURN_IF_ERROR(w.WriteF64(ck.timeline.gpu_busy));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.timeline.pcie_bytes));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.timeline.nvlink_bytes));
  FAE_RETURN_IF_ERROR(w.WriteU64(ck.timeline.network_bytes));

  FAE_RETURN_IF_ERROR(w.WriteU64(ck.curve.size()));
  for (const CurvePoint& p : ck.curve) {
    FAE_RETURN_IF_ERROR(w.WriteU64(p.iteration));
    FAE_RETURN_IF_ERROR(w.WriteF64(p.train_loss));
    FAE_RETURN_IF_ERROR(w.WriteF64(p.train_acc));
    FAE_RETURN_IF_ERROR(w.WriteF64(p.test_loss));
    FAE_RETURN_IF_ERROR(w.WriteF64(p.test_acc));
  }

  FAE_RETURN_IF_ERROR(w.WriteU32(ck.has_staleness ? 1 : 0));
  if (ck.has_staleness) {
    FAE_RETURN_IF_ERROR(w.WriteF64(ck.staleness.threshold));
    FAE_RETURN_IF_ERROR(w.WriteU32(ck.staleness.has_prev_loss ? 1 : 0));
    FAE_RETURN_IF_ERROR(w.WriteF64(ck.staleness.prev_loss));
    FAE_RETURN_IF_ERROR(w.WriteU32(
        static_cast<uint32_t>(ck.staleness.consecutive_decreases)));
    FAE_RETURN_IF_ERROR(w.WriteU64(ck.staleness.tables.size()));
    for (const StalenessTracker::TableState& t : ck.staleness.tables) {
      FAE_RETURN_IF_ERROR(w.WriteVector(t.ema));
      FAE_RETURN_IF_ERROR(w.WriteVector(t.visits));
      FAE_RETURN_IF_ERROR(w.WriteVector(t.streak));
    }
  }

  return Status::OK();
}

/// Reads what WriteState wrote into `ck`, checking `expect` (when given)
/// before anything past the fingerprints.
Status ReadState(BinaryReader& r, TrainerCheckpoint& ck,
                 const CheckpointIo::Expectation* expect) {
  FAE_ASSIGN_OR_RETURN(ck.mode, r.ReadU32());
  FAE_ASSIGN_OR_RETURN(ck.dataset_fingerprint, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.options_fingerprint, r.ReadU64());
  if (expect != nullptr) {
    // Rejecting here — before any model weights are read — means a
    // checkpoint from a different run never partially overwrites `model`.
    if (ck.mode != expect->mode) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint was taken in a different train mode (%u, want %u)",
          ck.mode, expect->mode));
    }
    if (ck.dataset_fingerprint != expect->dataset_fingerprint) {
      return Status::FailedPrecondition(
          "checkpoint was taken on a different dataset");
    }
    if (ck.options_fingerprint != expect->options_fingerprint) {
      return Status::FailedPrecondition(
          "checkpoint was taken with different training options");
    }
  }
  FAE_ASSIGN_OR_RETURN(ck.epoch, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.iteration, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.batch_in_epoch, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.hot_batches, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.cold_batches, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.sync_bytes, r.ReadU64());

  for (uint64_t& word : ck.rng.s) {
    FAE_ASSIGN_OR_RETURN(word, r.ReadU64());
  }
  FAE_ASSIGN_OR_RETURN(uint32_t cached, r.ReadU32());
  ck.rng.has_cached_gaussian = cached != 0;
  FAE_ASSIGN_OR_RETURN(ck.rng.cached_gaussian, r.ReadF64());

  FAE_RETURN_IF_ERROR(ReadMetricState(r, ck.metric));
  FAE_RETURN_IF_ERROR(ReadMetricState(r, ck.window));

  FAE_ASSIGN_OR_RETURN(ck.scheduler.rate, r.ReadF64());
  FAE_ASSIGN_OR_RETURN(ck.scheduler.issued_cold, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.scheduler.issued_hot, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(uint32_t next_is_hot, r.ReadU32());
  ck.scheduler.next_is_hot = next_is_hot != 0;
  FAE_ASSIGN_OR_RETURN(uint32_t any_issued, r.ReadU32());
  ck.scheduler.any_issued = any_issued != 0;
  FAE_ASSIGN_OR_RETURN(uint32_t last_was_hot, r.ReadU32());
  ck.scheduler.last_was_hot = last_was_hot != 0;
  FAE_ASSIGN_OR_RETURN(ck.scheduler.transitions, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(uint32_t has_prev_loss, r.ReadU32());
  ck.scheduler.has_prev_loss = has_prev_loss != 0;
  FAE_ASSIGN_OR_RETURN(ck.scheduler.prev_loss, r.ReadF64());
  FAE_ASSIGN_OR_RETURN(uint32_t decreases, r.ReadU32());
  ck.scheduler.consecutive_decreases = static_cast<int32_t>(decreases);

  for (double& s : ck.timeline.seconds) {
    FAE_ASSIGN_OR_RETURN(s, r.ReadF64());
  }
  FAE_ASSIGN_OR_RETURN(ck.timeline.cpu_busy, r.ReadF64());
  FAE_ASSIGN_OR_RETURN(ck.timeline.gpu_busy, r.ReadF64());
  FAE_ASSIGN_OR_RETURN(ck.timeline.pcie_bytes, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.timeline.nvlink_bytes, r.ReadU64());
  FAE_ASSIGN_OR_RETURN(ck.timeline.network_bytes, r.ReadU64());

  FAE_ASSIGN_OR_RETURN(uint64_t curve_size, r.ReadU64());
  if (curve_size > r.RemainingBytes() / (5 * sizeof(double))) {
    return Status::DataLoss("curve length exceeds file remainder");
  }
  ck.curve.resize(curve_size);
  for (CurvePoint& p : ck.curve) {
    FAE_ASSIGN_OR_RETURN(uint64_t iteration, r.ReadU64());
    p.iteration = static_cast<size_t>(iteration);
    FAE_ASSIGN_OR_RETURN(p.train_loss, r.ReadF64());
    FAE_ASSIGN_OR_RETURN(p.train_acc, r.ReadF64());
    FAE_ASSIGN_OR_RETURN(p.test_loss, r.ReadF64());
    FAE_ASSIGN_OR_RETURN(p.test_acc, r.ReadF64());
  }

  FAE_ASSIGN_OR_RETURN(uint32_t has_staleness, r.ReadU32());
  ck.has_staleness = has_staleness != 0;
  if (ck.has_staleness) {
    FAE_ASSIGN_OR_RETURN(ck.staleness.threshold, r.ReadF64());
    FAE_ASSIGN_OR_RETURN(uint32_t st_prev, r.ReadU32());
    ck.staleness.has_prev_loss = st_prev != 0;
    FAE_ASSIGN_OR_RETURN(ck.staleness.prev_loss, r.ReadF64());
    FAE_ASSIGN_OR_RETURN(uint32_t st_dec, r.ReadU32());
    ck.staleness.consecutive_decreases = static_cast<int32_t>(st_dec);
    FAE_ASSIGN_OR_RETURN(uint64_t st_tables, r.ReadU64());
    // Each table serializes at least three length words; bounding the
    // count against the remainder caps the allocation like the curve's.
    if (st_tables > r.RemainingBytes() / (3 * sizeof(uint64_t))) {
      return Status::DataLoss("staleness table count exceeds file remainder");
    }
    ck.staleness.tables.resize(st_tables);
    for (StalenessTracker::TableState& t : ck.staleness.tables) {
      FAE_ASSIGN_OR_RETURN(t.ema, r.ReadVector<float>());
      FAE_ASSIGN_OR_RETURN(t.visits, r.ReadVector<uint32_t>());
      FAE_ASSIGN_OR_RETURN(t.streak, r.ReadVector<uint32_t>());
    }
  }

  return Status::OK();
}

StatusOr<Header> ReadHeader(BinaryReader& r, const std::string& path) {
  FAE_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return Status::DataLoss("not a FAE training checkpoint: " + path);
  }
  FAE_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kVersion) {
    return Status::DataLoss(
        StrFormat("unsupported training-checkpoint version %u (this build "
                  "reads version %u): %s",
                  version, kVersion, path.c_str()));
  }
  FAE_ASSIGN_OR_RETURN(uint32_t kind, r.ReadU32());
  if (kind > static_cast<uint32_t>(Kind::kDelta)) {
    return Status::DataLoss("unknown checkpoint kind: " + path);
  }
  Header h;
  h.kind = static_cast<Kind>(kind);
  if (h.kind == Kind::kDelta) {
    FAE_ASSIGN_OR_RETURN(h.link.base_iteration, r.ReadU64());
    FAE_ASSIGN_OR_RETURN(h.link.base_crc, r.ReadU32());
    FAE_ASSIGN_OR_RETURN(h.link.index, r.ReadU64());
  }
  return h;
}

Status ReadTrailer(BinaryReader& r) {
  FAE_ASSIGN_OR_RETURN(uint32_t trailer, r.ReadU32());
  if (trailer != kTrailer) {
    return Status::DataLoss("training-checkpoint trailer missing");
  }
  return Status::OK();
}

/// One save: a base when `link` is null, else a delta holding the rows of
/// `rows`.
StatusOr<Saved> WriteSave(const std::string& path, const TrainerCheckpoint& ck,
                          RecModel& model, const Link* link,
                          const std::vector<std::vector<uint32_t>>* rows) {
  Saved out;
  out.kind = link == nullptr ? Kind::kBase : Kind::kDelta;
  FAE_ASSIGN_OR_RETURN(BinaryWriter w, BinaryWriter::OpenAtomic(path));
  FAE_RETURN_IF_ERROR(w.WriteU32(kMagic));
  FAE_RETURN_IF_ERROR(w.WriteU32(kVersion));
  FAE_RETURN_IF_ERROR(w.WriteU32(static_cast<uint32_t>(out.kind)));
  if (link != nullptr) {
    FAE_RETURN_IF_ERROR(w.WriteU64(link->base_iteration));
    FAE_RETURN_IF_ERROR(w.WriteU32(link->base_crc));
    FAE_RETURN_IF_ERROR(w.WriteU64(link->index));
  }
  FAE_RETURN_IF_ERROR(WriteState(w, ck));
  FAE_RETURN_IF_ERROR(ModelIo::WriteModelState(w, model, rows));
  FAE_RETURN_IF_ERROR(w.WriteU32(kTrailer));
  out.crc = w.crc();
  FAE_RETURN_IF_ERROR(w.WriteU32(out.crc));
  out.bytes = w.bytes();
  FAE_RETURN_IF_ERROR(w.Commit());
  return out;
}

/// Indices of the delta files next to `path`, ascending. IOError when the
/// directory cannot be listed.
StatusOr<std::vector<uint64_t>> DeltaIndices(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  const fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
  const std::string prefix = p.filename().string() + ".";
  std::vector<uint64_t> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size());
    // Exactly what DeltaPath writes: no sign, no leading zero, no suffix
    // (a temp file's ".tmp" included).
    if (digits.size() > 18 || digits[0] == '0' ||
        !std::all_of(digits.begin(), digits.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      continue;
    }
    out.push_back(std::stoull(digits));
  }
  if (ec) {
    return Status::IOError("cannot list " + dir.string() + ": " +
                           ec.message());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A delta read up to its model state.
struct OpenedDelta {
  BinaryReader reader;
  TrainerCheckpoint state;
};

/// Opens `delta` as delta `link.index` of the base `link` names, and reads
/// it up to its model state, so that every check a delta must pass runs
/// before any of it is applied. DataLoss naming the file when a check
/// fails (CRC, trailer, version, kind, index, fingerprints); the reader's
/// own error when the file cannot be read; nullopt when the delta names
/// another base (a leftover of an earlier chain, not damage).
StatusOr<std::optional<OpenedDelta>> OpenDelta(
    const std::string& delta, const Link& link,
    const CheckpointIo::Expectation& expect) {
  FAE_RETURN_IF_ERROR(VerifyFileIntegrity(delta));
  FAE_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(delta));
  FAE_ASSIGN_OR_RETURN(const Header h, ReadHeader(r, delta));
  if (h.kind != Kind::kDelta || h.link.index != link.index) {
    return Status::DataLoss(
        StrFormat("not delta %llu of its chain: %s",
                  static_cast<unsigned long long>(link.index),
                  delta.c_str()));
  }
  if (h.link.base_iteration != link.base_iteration ||
      h.link.base_crc != link.base_crc) {
    return std::optional<OpenedDelta>();
  }
  TrainerCheckpoint state;
  if (Status s = ReadState(r, state, &expect); !s.ok()) {
    return Status::DataLoss(std::string(s.message()) + ": " + delta);
  }
  return std::optional<OpenedDelta>(
      OpenedDelta{std::move(r), std::move(state)});
}

/// Writes a base and then removes the deltas of the chain it replaces,
/// last first, so that a crash part-way leaves no gap, only a prefix of
/// stale deltas that name another base.
StatusOr<Saved> WriteBase(const std::string& path, const TrainerCheckpoint& ck,
                          RecModel& model) {
  FAE_ASSIGN_OR_RETURN(const Saved base,
                       WriteSave(path, ck, model, nullptr, nullptr));
  FAE_ASSIGN_OR_RETURN(const std::vector<uint64_t> stale, DeltaIndices(path));
  for (auto it = stale.rbegin(); it != stale.rend(); ++it) {
    FAE_RETURN_IF_ERROR(RemoveFile(CheckpointIo::DeltaPath(path, *it)));
  }
  return base;
}

}  // namespace

Status CheckpointIo::Save(const std::string& path,
                          const TrainerCheckpoint& ck, RecModel& model) {
  return WriteBase(path, ck, model).status();
}

std::string CheckpointIo::DeltaPath(const std::string& path, uint64_t n) {
  return path + "." + std::to_string(n);
}

StatusOr<std::vector<std::string>> CheckpointIo::ChainFiles(
    const std::string& path) {
  FAE_ASSIGN_OR_RETURN(const std::vector<uint64_t> deltas, DeltaIndices(path));
  std::vector<std::string> files;
  if (FileExists(path)) files.push_back(path);
  for (uint64_t n : deltas) files.push_back(DeltaPath(path, n));
  return files;
}

StatusOr<CheckpointIo::Loaded> CheckpointIo::Load(const std::string& path,
                                                  RecModel& model,
                                                  const Expectation* expect) {
  // Whole-file checksum first: a crash-corrupted base is rejected before
  // any state — model weights included — is touched.
  FAE_RETURN_IF_ERROR(VerifyFileIntegrity(path));
  FAE_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  FAE_ASSIGN_OR_RETURN(const Header header, ReadHeader(r, path));
  if (header.kind != Kind::kBase) {
    return Status::DataLoss("a checkpoint delta, not a base: " + path);
  }
  Loaded out;
  FAE_RETURN_IF_ERROR(ReadState(r, out.state, expect));
  FAE_RETURN_IF_ERROR(ModelIo::ReadModelState(r, model));
  FAE_RETURN_IF_ERROR(ReadTrailer(r));
  const Expectation same{out.state.mode, out.state.dataset_fingerprint,
                         out.state.options_fingerprint};
  Link link{out.state.iteration, r.crc(), 0};

  FAE_ASSIGN_OR_RETURN(const std::vector<uint64_t> on_disk, DeltaIndices(path));
  for (link.index = 1;; ++link.index) {
    const std::string delta = DeltaPath(path, link.index);
    if (!std::binary_search(on_disk.begin(), on_disk.end(), link.index)) {
      if (!on_disk.empty() && on_disk.back() > link.index) {
        out.damage = Status::DataLoss(
            "checkpoint delta missing: " + delta +
            " (the deltas after it were not applied)");
      }
      break;
    }
    StatusOr<std::optional<OpenedDelta>> opened =
        OpenDelta(delta, link, same);
    if (!opened.ok()) {
      // Only a delta that was read and found wrong is damage. One that
      // could not be read fails the load: were a transient read error taken
      // for damage, the resumed run's first save would write a base and
      // delete the intact deltas after it.
      if (opened.status().code() != StatusCode::kDataLoss) {
        return opened.status();
      }
      out.damage = Status::DataLoss(
          std::string(opened.status().message()) +
          " (this delta and those after it were not applied)");
      break;
    }
    if (!opened->has_value()) {
      FAE_LOG(Info) << "ignoring " << delta
                    << ": a delta of an earlier chain at " << path;
      break;
    }
    OpenedDelta& d = **opened;
    // A delta that passed every check and still fails to parse is a
    // reader/writer mismatch, not damage: the model may be half-updated,
    // so it fails the load.
    FAE_RETURN_IF_ERROR(ModelIo::ReadModelState(d.reader, model,
                                                /*allow_rows=*/true));
    FAE_RETURN_IF_ERROR(ReadTrailer(d.reader));
    out.state = std::move(d.state);
    ++out.deltas;
  }
  return out;
}

StatusOr<CheckpointChain::Saved> CheckpointChain::Save(
    const TrainerCheckpoint& ck, RecModel& model,
    const std::vector<std::vector<uint32_t>>& written) {
  if (has_base_) {
    // The delta's size, predicted from the base's: the same trainer state
    // and dense parameters, compressed tables whole, and for each plain
    // table its written rows in place of the whole table.
    const std::vector<EmbeddingTable>& tables = model.tables();
    uint64_t predicted = base_bytes_;
    for (size_t t = 0; t < tables.size() && t < written.size(); ++t) {
      if (tables[t].compressed()) continue;
      const uint64_t row_bytes = tables[t].dim() * sizeof(float);
      predicted += sizeof(uint64_t) +
                   written[t].size() * (sizeof(uint32_t) + row_bytes);
      predicted -= std::min(predicted, tables[t].rows() * row_bytes);
    }
    if (delta_bytes_ + predicted <= base_bytes_) {
      const Link link{base_iteration_, base_crc_, deltas_ + 1};
      FAE_ASSIGN_OR_RETURN(
          const Saved delta,
          WriteSave(CheckpointIo::DeltaPath(path_, link.index), ck, model,
                    &link, &written));
      ++deltas_;
      delta_bytes_ += delta.bytes;
      return delta;
    }
  }
  FAE_ASSIGN_OR_RETURN(const Saved base, WriteBase(path_, ck, model));
  has_base_ = true;
  base_iteration_ = ck.iteration;
  base_crc_ = base.crc;
  base_bytes_ = base.bytes;
  delta_bytes_ = 0;
  deltas_ = 0;
  return base;
}

}  // namespace fae
