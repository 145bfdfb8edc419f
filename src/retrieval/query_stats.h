/// \file query_stats.h
/// \brief Cumulative query-side observability counters.
///
/// `QueryStats` mirrors `IngestStats` for the read path: it aggregates
/// every query served by a `RetrievalEngine` since open, broken down by
/// pipeline stage (feature extraction -> candidate selection ->
/// ranking), and is what the service stats RPC ships to remote clients
/// alongside the ingest counters.

#pragma once

#include <cstdint>

namespace vr {

/// \brief Point-in-time query counters of a RetrievalEngine.
///
/// All fields are cumulative since the engine was opened. Stage wall
/// times are summed across queries (and, for sharded ranking, measured
/// on the coordinating thread — shard compute overlaps inside rank_ms,
/// it is not summed per worker).
struct QueryStats {
  /// Image queries served (combined + single-feature).
  uint64_t image_queries = 0;
  /// Video (DTW) queries served.
  uint64_t video_queries = 0;
  /// Ranking passes that used more than one shard.
  uint64_t sharded_ranks = 0;
  /// Key frames actually scored, summed over queries. For a video query
  /// every stored frame is scored once per query key frame.
  uint64_t candidates_scored = 0;
  /// Key frames indexed at selection time, summed over queries — the
  /// denominator of the bucket-pruning ratio.
  uint64_t candidates_total = 0;
  /// Wall time extracting features from query frames.
  double extract_ms = 0.0;
  /// Wall time selecting candidates through the range index.
  double select_ms = 0.0;
  /// Wall time ranking (distance columns + fusion + top-k).
  double rank_ms = 0.0;
  /// Query-by-stored-id requests served (also counted nowhere else:
  /// they are neither image nor video queries).
  uint64_t id_queries = 0;
  /// Extraction-cache hits: query frames whose features were served
  /// from the content-addressed cache without running any extractor.
  uint64_t cache_hits = 0;
  /// Extraction-cache misses (extraction ran and the bank was cached).
  uint64_t cache_misses = 0;
  /// Ranking passes that took the two-stage path (coarse quantized scan
  /// followed by an exact rerank of the survivors).
  uint64_t two_stage_queries = 0;
  /// Candidates that survived the coarse stage into the exact rerank,
  /// summed over two-stage queries (compare with candidates_scored to
  /// see how much exact-kernel work the coarse stage saved).
  uint64_t coarse_candidates = 0;
  /// Eligible queries whose coarse stage could not prune and fell back
  /// to the exact scan: a queried kind without a code kernel, a failed
  /// kernel precondition, or an error margin wide enough to keep every
  /// candidate. Disjoint from two_stage_queries — each eligible query
  /// increments exactly one of the two.
  uint64_t two_stage_fallbacks = 0;
  /// Survivors beyond the k * factor keep target retained because
  /// their certified score interval overlapped the cut — the price of
  /// the bit-identical top-k guarantee, summed over two-stage queries.
  uint64_t margin_kept = 0;
  /// Query extractions that forked onto a helper thread (the core
  /// budget had a core to spare). Not carried by the stats RPC.
  uint64_t forked_extractions = 0;
};

}  // namespace vr
