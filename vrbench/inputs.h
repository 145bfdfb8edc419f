/// \file inputs.h
/// \brief Seeded inputs of one vr_bench run and the stores built from
/// them.
///
/// Everything the timed phase sends to the program is generated here,
/// before any timer starts: held-out query frames, the per-connection
/// operation schedules and the videos the ingest thread streams. The
/// Table-1 corpus, the held-out frames and the ingested videos are fixed
/// reference data (eval/corpus at the bench/table1_precision spec), so
/// that precision and the work per run are the same on every run; the
/// run seed drives the order of frames and videos, the drawn ids and the
/// clone noise.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "eval/corpus.h"
#include "imaging/image.h"
#include "util/status.h"

namespace vrbench {

/// Top-k of every query the benchmark sends (the paper's first cutoff).
inline constexpr size_t kTopK = 20;

/// A held-out query frame and the category that counts as relevant.
struct QueryFrame {
  vr::Image image;
  vr::VideoCategory category = vr::VideoCategory::kMovie;
};

/// A synthetic video the ingest thread streams into the store.
struct IngestVideo {
  std::vector<vr::Image> frames;
  vr::VideoCategory category = vr::VideoCategory::kMovie;
};

/// One request of a load connection.
struct Op {
  bool by_id = false;
  uint32_t frame = 0;  ///< index into the query pool (image requests)
  int64_t id = 0;      ///< stored key-frame id (by-id requests)
};

/// Category ground truth of a built store.
struct GroundTruth {
  std::map<int64_t, vr::VideoCategory> video_category;  ///< v_id -> category
  std::map<int64_t, int64_t> frame_video;  ///< i_id -> v_id (id_warm only)

  /// P@kTopK of \p v_ids (a ranked reply) for a query of \p category.
  double PrecisionAt20(const std::vector<int64_t>& v_ids,
                       vr::VideoCategory category) const;
};

/// The corpus of bench/table1_precision: CorpusSpec defaults (8 videos
/// per category, seed 2012) at 128x96 with 8 scenes of 10 frames.
vr::CorpusSpec TableOneSpec();

/// Runs fn(i) for i in [0, n) on up to \p threads threads.
void ParallelFor(size_t n, size_t threads, const std::function<void(size_t)>& fn);

/// The first \p count held-out query frames (categories round-robin),
/// in an order shuffled by \p seed. The frames themselves do not depend
/// on the seed, so precision over a whole pool is the same on every run.
std::vector<QueryFrame> MakeQueryPool(size_t count, uint64_t seed);

/// \p count synthetic videos shaped like the corpus videos (categories
/// round-robin), in an order shuffled by \p seed; like the query
/// frames, the videos themselves do not depend on the seed.
std::vector<IngestVideo> MakeIngestVideos(size_t count, uint64_t seed);

/// \p length requests per connection: half QueryById on a uniformly
/// drawn stored id, half an image query on a uniformly drawn frame of a
/// pool of \p pool_size.
std::vector<Op> MakeMixedSchedule(size_t length, const std::vector<int64_t>& ids,
                                  size_t pool_size, uint64_t seed);

/// Result of ingesting the Table-1 corpus.
struct CorpusBuild {
  GroundTruth truth;
  size_t key_frames = 0;
  double ingest_s = 0.0;  ///< IngestPipeline wall time, first Submit to Finish
};

/// Ingests the Table-1 corpus (CorpusSpec defaults) into a fresh store
/// at \p dir through an IngestPipeline with default options, from .vsv
/// files written to (and afterwards removed from) \p video_dir.
vr::Result<CorpusBuild> IngestTableOneCorpus(const std::string& dir,
                                             const std::string& video_dir);

/// Appends clones of the stored key frames to the store at \p dir
/// through the VideoStore API until it holds \p rows key frames. Each
/// source video gets one clone video of the same category holding its
/// clones; feature values get 1 % multiplicative Gaussian noise,
/// dimensions and range buckets are kept. Fills \p truth for the clones
/// and every stored frame.
vr::Status CloneRows(const std::string& dir, size_t rows, uint64_t seed,
                     GroundTruth* truth);

}  // namespace vrbench
