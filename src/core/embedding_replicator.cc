#include "core/embedding_replicator.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace fae {

EmbeddingReplicator::EmbeddingReplicator(
    const std::vector<EmbeddingTable>& masters, const HotSet& hot_set) {
  FAE_CHECK_EQ(masters.size(), hot_set.num_tables());
  const size_t n = masters.size();
  hot_rows_.resize(n);
  slot_of_.resize(n);
  replicas_.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    hot_rows_[t] = hot_set.HotRows(t);
    slot_of_[t].assign(masters[t].rows(), -1);
    for (size_t slot = 0; slot < hot_rows_[t].size(); ++slot) {
      slot_of_[t][hot_rows_[t][slot]] = static_cast<int64_t>(slot);
    }
    replicas_.emplace_back(hot_rows_[t].size(), masters[t].dim());
    hot_bytes_ += replicas_.back().SizeBytes();
  }
}

std::vector<EmbeddingTable*> EmbeddingReplicator::replica_tables() {
  std::vector<EmbeddingTable*> out;
  out.reserve(replicas_.size());
  for (EmbeddingTable& t : replicas_) out.push_back(&t);
  return out;
}

int64_t EmbeddingReplicator::SlotOf(size_t table, uint64_t row) const {
  FAE_CHECK_LT(table, slot_of_.size());
  FAE_CHECK_LT(row, slot_of_[table].size());
  return slot_of_[table][row];
}

StatusOr<FlatDataset> EmbeddingReplicator::TranslateFlat(
    const FlatDataset& flat) const {
  FlatDataset out = flat;
  for (size_t t = 0; t < slot_of_.size(); ++t) {
    for (uint32_t& idx : out.mutable_indices(t)) {
      const int64_t slot = SlotOf(t, idx);
      if (slot < 0) {
        return Status::InvalidArgument(StrFormat(
            "cold lookup (table %zu, row %u) in a dataset marked hot", t,
            idx));
      }
      idx = static_cast<uint32_t>(slot);
    }
  }
  return out;
}

void EmbeddingReplicator::PullFromMasters(
    const std::vector<EmbeddingTable>& masters) {
  for (size_t t = 0; t < replicas_.size(); ++t) {
    for (size_t slot = 0; slot < hot_rows_[t].size(); ++slot) {
      replicas_[t].CopyRowFrom(masters[t], hot_rows_[t][slot], slot);
    }
  }
}

void EmbeddingReplicator::PushToMasters(
    std::vector<EmbeddingTable>& masters) const {
  for (size_t t = 0; t < replicas_.size(); ++t) {
    for (size_t slot = 0; slot < hot_rows_[t].size(); ++slot) {
      masters[t].CopyRowFrom(replicas_[t], slot, hot_rows_[t][slot]);
    }
  }
}

void EmbeddingReplicator::ScrambleReplicas(uint64_t seed) {
  SplitMix64 noise(seed);
  for (EmbeddingTable& replica : replicas_) {
    for (float& v : replica.raw()) {
      // Arbitrary garbage in roughly the weights' magnitude, so a missed
      // detection would visibly wreck training rather than hide.
      v = static_cast<float>(static_cast<int64_t>(noise.Next() % 2001) -
                             1000) /
          1000.0f;
    }
  }
}

void EmbeddingReplicator::PullRowsFromMasters(
    const std::vector<EmbeddingTable>& masters,
    const std::vector<std::vector<uint32_t>>& rows) {
  FAE_CHECK_EQ(rows.size(), replicas_.size());
  for (size_t t = 0; t < replicas_.size(); ++t) {
    for (uint32_t row : rows[t]) {
      const int64_t slot = SlotOf(t, row);
      FAE_CHECK_GE(slot, 0) << "delta sync of a cold row";
      replicas_[t].CopyRowFrom(masters[t], row,
                               static_cast<uint64_t>(slot));
    }
  }
}

void EmbeddingReplicator::PushRowsToMasters(
    std::vector<EmbeddingTable>& masters,
    const std::vector<std::vector<uint32_t>>& rows) const {
  FAE_CHECK_EQ(rows.size(), replicas_.size());
  for (size_t t = 0; t < replicas_.size(); ++t) {
    for (uint32_t row : rows[t]) {
      const int64_t slot = SlotOf(t, row);
      FAE_CHECK_GE(slot, 0) << "delta sync of a cold row";
      masters[t].CopyRowFrom(replicas_[t], static_cast<uint64_t>(slot), row);
    }
  }
}

}  // namespace fae
