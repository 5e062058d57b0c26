#include "data/batch_view.h"

#include <algorithm>

#include "util/logging.h"

namespace fae {

BatchView MakeBatchView(const FlatDataset& flat, size_t begin, size_t end,
                        bool hot) {
  FAE_CHECK_LE(begin, end);
  FAE_CHECK_LE(end, flat.size());
  const size_t b = end - begin;
  BatchView view;
  view.dense = MatView(flat.dense_row(begin), b, flat.schema().num_dense);
  view.labels = flat.labels().subspan(begin, b);
  view.hot = hot;
  view.tables.resize(flat.schema().num_tables());
  for (size_t t = 0; t < view.tables.size(); ++t) {
    const std::span<const uint32_t> off = flat.offsets(t);
    const uint32_t lo = off[begin];
    const uint32_t hi = off[end];
    view.tables[t].offsets = off.subspan(begin, b + 1);
    view.tables[t].indices = flat.indices(t).subspan(lo, hi - lo);
    view.total_lookups += hi - lo;
  }
  return view;
}

void ForEachLookup(const BatchView& view,
                   const std::function<void(size_t, uint32_t)>& fn) {
  for (size_t t = 0; t < view.num_tables(); ++t) {
    for (uint32_t row : view.indices(t)) fn(t, row);
  }
}

void ForEachLookup(const FlatDataset& flat, std::span<const uint64_t> ids,
                   const std::function<void(size_t, uint32_t)>& fn) {
  const size_t num_tables = flat.schema().num_tables();
  for (size_t t = 0; t < num_tables; ++t) {
    for (uint64_t id : ids) {
      for (uint32_t row : flat.lookups(t, id)) fn(t, row);
    }
  }
}

std::vector<BatchView> MakeBatchViews(const FlatDataset& flat,
                                      size_t batch_size, bool hot) {
  FAE_CHECK_GE(batch_size, 1u);
  std::vector<BatchView> out;
  out.reserve((flat.size() + batch_size - 1) / batch_size);
  for (size_t begin = 0; begin < flat.size(); begin += batch_size) {
    const size_t end = std::min(flat.size(), begin + batch_size);
    out.push_back(MakeBatchView(flat, begin, end, hot));
  }
  return out;
}

}  // namespace fae
