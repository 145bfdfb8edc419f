#include "index/range_bucket_index.h"

#include <algorithm>

namespace vr {

GrayRange RangeBucketIndex::Insert(int64_t id, const GrayHistogram& hist) {
  const GrayRange range = FindRange(hist, options_);
  InsertAt(id, range);
  return range;
}

void RangeBucketIndex::InsertAt(int64_t id, const GrayRange& range) {
  buckets_[range].push_back(id);
}

bool RangeBucketIndex::Erase(int64_t id, const GrayRange& range) {
  auto it = buckets_.find(range);
  if (it == buckets_.end()) return false;
  auto& ids = it->second;
  auto pos = std::find(ids.begin(), ids.end(), id);
  if (pos == ids.end()) return false;
  ids.erase(pos);
  if (ids.empty()) buckets_.erase(it);
  return true;
}

std::vector<int64_t> RangeBucketIndex::Lookup(const GrayRange& query,
                                              RangeLookupMode mode) const {
  std::vector<int64_t> out;
  if (mode == RangeLookupMode::kExact) {
    // O(log B) map lookup under the bucket comparator, which orders by
    // (min, max) and ignores depth — deliberately, because stored
    // frames re-enter the index at depth 0 on warm-up while query
    // ranges carry their true recursion depth. Matching on the gray
    // interval alone is what the engine's candidate scan always did.
    const auto it = buckets_.find(query);
    if (it != buckets_.end()) out = it->second;
    std::sort(out.begin(), out.end());
    return out;
  }
  for (const auto& [range, ids] : buckets_) {
    // Buckets are ordered by (min, max); once a bucket starts past the
    // query's max gray level, no later bucket can be in its lineage.
    if (range.min > query.max) break;
    if (range.Contains(query) || query.Contains(range)) {
      out.insert(out.end(), ids.begin(), ids.end());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int64_t> RangeBucketIndex::Lookup(const Image& query,
                                              RangeLookupMode mode) const {
  return Lookup(FindRange(query, options_), mode);
}

size_t RangeBucketIndex::size() const {
  size_t n = 0;
  for (const auto& [range, ids] : buckets_) n += ids.size();
  return n;
}

}  // namespace vr
