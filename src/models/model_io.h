#ifndef FAE_MODELS_MODEL_IO_H_
#define FAE_MODELS_MODEL_IO_H_

#include <string>

#include "models/rec_model.h"
#include "util/file_io.h"
#include "util/statusor.h"

namespace fae {

/// Checkpointing: (de)serializes a RecModel's trainable state — dense
/// parameters and embedding tables — so training can resume or a trained
/// model can be served (see examples/serving.cpp).
///
/// Saves are crash-safe: the file is written to a temp path and renamed
/// into place only once complete, and it ends with a CRC-32 footer that
/// Load verifies before parsing a single field — a truncated, bit-flipped,
/// or interrupted checkpoint is reported as a Status, never loaded.
///
/// Load restores *into* an existing model of the same architecture; the
/// file records parameter names and shapes and refuses mismatches, so a
/// checkpoint cannot be silently loaded into the wrong model.
///
/// Format v4 records a per-table storage mode and layout: plain fp32
/// tables are written raw, whole or (inside a delta checkpoint,
/// engine/checkpoint.h) as (row id, row) pairs of the rows a run wrote
/// since its previous save; compressed tables
/// (EmbeddingTable::CompressCold) always go in whole, persisting their
/// quantized sections *verbatim* — slot map, resident fp32
/// rows, int8 codes + scale/zero_point arrays or binary16 payload — under
/// the same whole-file CRC. Verbatim matters: requantizing a dequantized
/// row re-rounds the scale, so round-tripping through fp32 would not be
/// bit-stable. A compressed section read into a table restores the
/// compressed state (replacing any earlier one of the same chain); the
/// trainer then keeps it (same cold_precision),
/// widens it exactly via Decompress (resuming at fp32), or rejects the
/// combination. Tables must have no staged rows at save time (checkpoints
/// are taken at flushed sync boundaries).
class ModelIo {
 public:
  /// `model` is non-const only because parameter access goes through the
  /// mutable DenseParams() accessor; Save does not modify it.
  static Status Save(const std::string& path, RecModel& model);
  static Status Load(const std::string& path, RecModel& model);

  /// Raw model-state section (dense params + embedding tables), embeddable
  /// inside larger containers — the full-run training checkpoint
  /// (engine/checkpoint.h) reuses it so both formats stay in lockstep.
  /// `rows`, when given, holds for each table the ids of the rows to write:
  /// a plain table's section then holds only those (row id, row) pairs,
  /// streamed through a fixed-size buffer; a compressed table goes in
  /// whole. Without it every table goes in whole.
  static Status WriteModelState(
      BinaryWriter& w, RecModel& model,
      const std::vector<std::vector<uint32_t>>* rows = nullptr);
  /// Reads a section WriteModelState wrote into `model`: a whole section
  /// replaces its table, a row section overwrites the rows it names.
  /// Unless `allow_rows`, a row section is DataLoss (a file that must
  /// stand alone holds whole tables).
  static Status ReadModelState(BinaryReader& r, RecModel& model,
                               bool allow_rows = false);
};

}  // namespace fae

#endif  // FAE_MODELS_MODEL_IO_H_
