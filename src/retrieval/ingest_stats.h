/// \file ingest_stats.h
/// \brief Cumulative ingest-side observability counters.
///
/// `IngestStats` is the engine-level snapshot: it aggregates every
/// ingest that went through a `RetrievalEngine` in this process,
/// whether serial (`IngestFrames`) or staged (`IngestPipeline`), and is
/// what the service stats RPC ships to remote clients. Pipeline-local
/// counters (queue depths, in-flight videos, throughput) live in
/// `IngestPipelineStats` (see ingest_pipeline.h) because they describe
/// one pipeline run, not the engine.

#pragma once

#include <array>
#include <cstdint>

#include "features/feature_vector.h"

namespace vr {

/// \brief Point-in-time ingest counters of a RetrievalEngine.
///
/// All fields are cumulative since the engine was opened. Stage wall
/// times are summed across workers, so under parallel ingest they can
/// exceed elapsed wall-clock time — divide by the worker count for a
/// per-core figure.
struct IngestStats {
  /// Videos committed to the store (serial ingest + pipeline commits).
  uint64_t videos_ingested = 0;
  /// Frames pushed through key-frame detection (§4.1). For file ingest
  /// this equals the decoded frame count of every video.
  uint64_t frames_decoded = 0;
  /// Key frames that survived run-collapsing and were committed.
  uint64_t keyframes_kept = 0;
  /// Wall time of the decode stage: .vsv read and decode (when the
  /// engine or pipeline does it), key-frame detection and, for
  /// in-memory frames, the video-blob encode.
  double decode_ms = 0.0;
  /// Wall time of per-key-frame preparation: the enabled feature
  /// extractors, range-finder bucketing and key-frame image encoding.
  double extract_ms = 0.0;
  /// Wall time spent inside CommitGroup (row batching, WAL sync, index
  /// + cache publish, matrix cache sync, and a journal checkpoint when
  /// one falls due), writer-mutex wait included, summed per group.
  /// Queries are held off only for the in-memory publish.
  double commit_ms = 0.0;
  /// Per-extractor share of extract_ms, indexed by FeatureKind.
  /// Disabled extractors stay 0.
  std::array<double, kNumFeatureKinds> extractor_ms{};
};

}  // namespace vr
