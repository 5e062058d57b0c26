#include "engine/checkpoint.h"

#include "models/model_io.h"
#include "util/file_io.h"
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
constexpr uint32_t kVersion = 4;
constexpr uint32_t kTrailer = 0x444e454b;  // "KEND"

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

}  // namespace

Status CheckpointIo::Save(const std::string& path,
                          const TrainerCheckpoint& ck, RecModel& model) {
  FAE_ASSIGN_OR_RETURN(BinaryWriter w, BinaryWriter::OpenAtomic(path));
  FAE_RETURN_IF_ERROR(w.WriteU32(kMagic));
  FAE_RETURN_IF_ERROR(w.WriteU32(kVersion));

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

  FAE_RETURN_IF_ERROR(ModelIo::WriteModelState(w, model));

  FAE_RETURN_IF_ERROR(w.WriteU32(kTrailer));
  const uint32_t crc = w.crc();
  FAE_RETURN_IF_ERROR(w.WriteU32(crc));
  return w.Commit();
}

StatusOr<TrainerCheckpoint> CheckpointIo::Load(const std::string& path,
                                               RecModel& model,
                                               const Expectation* expect) {
  // Whole-file checksum first: a crash-corrupted checkpoint is rejected
  // before any state — model weights included — is touched.
  FAE_RETURN_IF_ERROR(VerifyFileIntegrity(path));
  FAE_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  FAE_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return Status::DataLoss("not a FAE training checkpoint: " + path);
  }
  FAE_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kVersion) {
    return Status::DataLoss(
        StrFormat("unsupported training-checkpoint version %u", version));
  }

  TrainerCheckpoint ck;
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

  FAE_RETURN_IF_ERROR(ModelIo::ReadModelState(r, model));

  FAE_ASSIGN_OR_RETURN(uint32_t trailer, r.ReadU32());
  if (trailer != kTrailer) {
    return Status::DataLoss("training-checkpoint trailer missing");
  }
  return ck;
}

}  // namespace fae
