#ifndef FAE_CORE_EMBEDDING_REPLICATOR_H_
#define FAE_CORE_EMBEDDING_REPLICATOR_H_

#include <cstdint>
#include <vector>

#include "core/embedding_classifier.h"
#include "data/flat_dataset.h"
#include "embedding/embedding_table.h"
#include "util/statusor.h"

namespace fae {

/// The paper's Embedding Replicator (§III): extracts the hot rows of every
/// table into compact replica tables that live on each GPU, and keeps them
/// coherent with the CPU master copy across hot/cold phase switches.
///
/// Synchronous data parallelism keeps all GPU replicas bit-identical, so
/// the simulation stores one replica standing for all of them; the cost
/// model charges the per-GPU broadcast separately.
class EmbeddingReplicator {
 public:
  /// Builds zero-filled replicas laid out as [hot rows of table t, in row
  /// order]; call PullFromMasters before training on them.
  EmbeddingReplicator(const std::vector<EmbeddingTable>& masters,
                      const HotSet& hot_set);

  /// Replica tables, one per master table (all-hot small tables replicate
  /// wholesale).
  std::vector<EmbeddingTable*> replica_tables();

  /// Rewrites an all-hot gathered dataset's indices from master
  /// coordinates to replica slots, as one translated clone produced once
  /// per run so every hot batch view is already in replica coordinates (no
  /// per-batch translation copies). InvalidArgument if any lookup is not
  /// hot (the input processor guarantees this never happens for samples it
  /// classified hot).
  StatusOr<FlatDataset> TranslateFlat(const FlatDataset& flat) const;

  /// Replica slot of master row `row` in table `t`, or -1 when cold.
  int64_t SlotOf(size_t table, uint64_t row) const;

  /// Master row backing replica slot `slot` of table `t`.
  uint64_t RowOf(size_t table, uint64_t slot) const {
    return hot_rows_[table][slot];
  }

  /// Copies hot rows master -> replica (entering a hot phase, and the
  /// initial replication onto GPUs).
  void PullFromMasters(const std::vector<EmbeddingTable>& masters);

  /// Copies hot rows replica -> master (leaving a hot phase, so cold
  /// batches and evaluation see the hot updates).
  void PushToMasters(std::vector<EmbeddingTable>& masters) const;

  /// Delta sync: copies only the listed master rows (per table) from
  /// master to replica. Rows must be hot. Used by the dirty-row sync
  /// strategy, which ships just the entries updated since the last sync
  /// instead of the whole hot slice (an optimization over the paper's
  /// wholesale sync; see bench/abl_sync_strategy.cc).
  void PullRowsFromMasters(const std::vector<EmbeddingTable>& masters,
                           const std::vector<std::vector<uint32_t>>& rows);

  /// Delta sync in the other direction: replica -> master for the listed
  /// master rows.
  void PushRowsToMasters(std::vector<EmbeddingTable>& masters,
                         const std::vector<std::vector<uint32_t>>& rows) const;

  /// Simulates a corrupted hot-slice sync (fault injection): overwrites
  /// every replica entry with seed-derived noise. Recovery is a full
  /// PullFromMasters — the CPU master copy is always authoritative.
  void ScrambleReplicas(uint64_t seed);

  /// Bytes of one replica copy (the per-transition sync payload and the
  /// per-GPU memory footprint).
  uint64_t hot_bytes() const { return hot_bytes_; }

 private:
  std::vector<std::vector<uint32_t>> hot_rows_;   // slot -> master row
  std::vector<std::vector<int64_t>> slot_of_;     // master row -> slot / -1
  std::vector<EmbeddingTable> replicas_;
  uint64_t hot_bytes_ = 0;
};

}  // namespace fae

#endif  // FAE_CORE_EMBEDDING_REPLICATOR_H_
