/// \file range_bucket_index.h
/// \brief Posting-list index keyed by the range finder's buckets.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "index/range_finder.h"

namespace vr {

/// Candidate-selection policy for lookups.
enum class RangeLookupMode {
  /// Only the query's exact bucket.
  kExact,
  /// The query's bucket plus every ancestor and descendant bucket —
  /// frames whose recursion stopped earlier or went deeper on the same
  /// branch. It is lossless against the bucket tree of Figure 7: buckets
  /// are dyadic intervals, so two of them either nest or are disjoint,
  /// and lineage keeps every bucket that shares a gray level with the
  /// query's. It is not lossless against a full scan, which also ranks
  /// the frames of disjoint buckets (EXPERIMENTS.md § Figure 7 gives
  /// what that costs in Table 1 precision).
  kLineage,
};

/// \brief In-memory bucket -> frame-id index.
///
/// Thread-safety: externally synchronized. The const members (Lookup,
/// size, bucket_count, buckets) are safe to call concurrently with each
/// other; Insert/InsertAt/Erase require exclusive access. The
/// RetrievalEngine enforces this with its reader/writer lock — lookups
/// run under the shared side, mutation under the exclusive side.
class RangeBucketIndex {
 public:
  explicit RangeBucketIndex(RangeFinderOptions options = {})
      : options_(options) {}

  const RangeFinderOptions& options() const { return options_; }

  /// Indexes a frame id under its histogram's bucket; returns the bucket.
  GrayRange Insert(int64_t id, const GrayHistogram& hist);

  /// Indexes a frame id under a precomputed bucket.
  void InsertAt(int64_t id, const GrayRange& range);

  /// Removes one id from its bucket; true when found.
  bool Erase(int64_t id, const GrayRange& range);

  /// Candidate ids for a query bucket, per the lookup mode, sorted
  /// ascending. kExact matches on the (min, max) interval only (the
  /// bucket-map comparator ignores depth, matching the engine's
  /// candidate predicate for frames re-indexed at depth 0 on warm-up);
  /// it is an O(log B) map lookup. kLineage walks the bucket list with
  /// an early exit past the query's max gray level.
  std::vector<int64_t> Lookup(const GrayRange& query,
                              RangeLookupMode mode) const;

  /// Candidate ids for a query image.
  std::vector<int64_t> Lookup(const Image& query, RangeLookupMode mode) const;

  /// Total indexed ids.
  size_t size() const;

  /// Number of non-empty buckets.
  size_t bucket_count() const { return buckets_.size(); }

  /// Occupancy per bucket, for the Figure-7 bench.
  const std::map<GrayRange, std::vector<int64_t>>& buckets() const {
    return buckets_;
  }

 private:
  RangeFinderOptions options_;
  std::map<GrayRange, std::vector<int64_t>> buckets_;
};

}  // namespace vr
