#ifndef FAE_DATA_DATASET_IO_H_
#define FAE_DATA_DATASET_IO_H_

#include <string>

#include "data/dataset.h"
#include "util/statusor.h"

namespace fae {

/// Binary (de)serialization of datasets, so a synthetic dataset can be
/// generated once and reused across tools and training runs (the CLI's
/// `generate` / `train` workflow). Format (FAED v3): magic + version +
/// schema, the sample count and per-table lookup counts, then
/// FlatDataset's columns as raw sections (dense, labels, and per table the
/// CSR offsets and indices), a trailer and a whole-file CRC-32. Load reads
/// it in one checksummed pass and refuses other versions with DataLoss.
class DatasetIo {
 public:
  static Status Save(const std::string& path, const Dataset& dataset);
  static StatusOr<Dataset> Load(const std::string& path);
};

}  // namespace fae

#endif  // FAE_DATA_DATASET_IO_H_
