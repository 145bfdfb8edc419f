/// \file engine.h
/// \brief The content-based video retrieval engine (the paper's system).
///
/// Ties every substrate together: ingestion decodes a video, extracts
/// key frames (§4.1), runs the seven feature extractors (§4.3-4.8),
/// assigns the range-finder bucket (§4.2) and persists everything into
/// the VIDEO_STORE / KEY_FRAMES tables; querying extracts the same
/// features from the query frame, prunes candidates through the range
/// index, ranks by per-feature or combined distance, and supports
/// video-to-video search via DTW over key-frame sequences.

#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "features/extractor_registry.h"
#include "features/plan/extraction_cache.h"
#include "features/plan/extraction_plan.h"
#include "imaging/image.h"
#include "index/range_bucket_index.h"
#include "keyframe/keyframe_extractor.h"
#include "retrieval/feature_matrix.h"
#include "retrieval/ingest_stats.h"
#include "retrieval/matrix_store.h"
#include "retrieval/query_stats.h"
#include "similarity/combined_scorer.h"
#include "storage/video_store.h"
#include "util/fork_join.h"
#include "util/mutex.h"
#include "util/shared_mutex.h"
#include "util/status.h"
#include "util/thread.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace vr {

/// Tuning for the retrieval engine.
struct EngineOptions {
  /// Features extracted at ingest and available for querying.
  std::vector<FeatureKind> enabled_features = {
      FeatureKind::kColorHistogram, FeatureKind::kGlcm,
      FeatureKind::kGabor,          FeatureKind::kTamura,
      FeatureKind::kAutoCorrelogram, FeatureKind::kNaiveSignature,
      FeatureKind::kRegionGrowing,
  };
  KeyFrameOptions keyframe;
  RangeFinderOptions range;
  /// Prune candidates through the range index; false scans everything.
  bool use_index = true;
  /// Candidate policy when use_index is true.
  RangeLookupMode lookup_mode = RangeLookupMode::kLineage;
  /// Per-feature score normalization for the combined ranking.
  NormalizationKind normalization = NormalizationKind::kMinMax;
  /// Store the full video bytes in VIDEO_STORE (disable to save space
  /// in large experiments; key frames are always stored).
  bool store_video_blob = true;
  /// When false, a damaged table is quarantined at open instead of
  /// failing it; the engine serves whatever is healthy (see
  /// DamageReport()). Mirrors DatabaseOptions::paranoid.
  bool paranoid = true;
  /// Filesystem abstraction for all storage I/O (Env::Default() if null).
  Env* env = nullptr;
  /// Candidate count at which ranking shards distance columns across
  /// the rank pool; below it (or at 0) ranking stays serial. Sharded
  /// and serial ranking return byte-identical results, so this is a
  /// pure performance knob.
  size_t parallel_rank_threshold = 512;
  /// Rank-pool worker count; 0 means one per hardware thread. The pool
  /// is only created when the resolved count exceeds 1 and
  /// parallel_rank_threshold is non-zero.
  size_t rank_workers = 0;
  /// By default the resolved rank worker count is capped at
  /// hardware_concurrency(): on a 1-CPU box, oversubscribed shards are
  /// strictly slower than a serial rank (4 shards measured at ~1.4x
  /// the serial latency). Tests that must exercise the sharded path
  /// regardless set this to true.
  bool rank_oversubscribe = false;
  /// Entry capacity of the content-addressed extraction cache keyed on
  /// query-frame pixel bytes (see features/plan/extraction_cache.h);
  /// 0 disables caching. Repeated query frames skip extraction
  /// entirely — the dominant cost of a cold query.
  size_t extraction_cache_capacity = 64;
  /// Persist the columnar FeatureMatrix (exact doubles + quantized
  /// shadow codes) as a paged cache file next to the tables, so a warm
  /// open streams binary pages instead of re-extracting every row from
  /// the store. The file validates against the store's generation at
  /// open and transparently falls back to the legacy rebuild when
  /// stale or damaged (see retrieval/matrix_store.h).
  bool persist_matrix = true;
  /// Enable the two-stage query: an integer code-space coarse scan
  /// over the 8-bit quantized columns (similarity/code_kernels.h)
  /// keeps at least k * RetrievalEngine::kTwoStageCoarseFactor
  /// candidates — plus every candidate whose certified coarse-score
  /// interval overlaps the cut, so the exact rerank provably returns the
  /// bit-identical top-k (see DESIGN.md's margin proof sketch). Only
  /// activates when the final score is batch-independent —
  /// single-feature queries always are; combined queries only under
  /// NormalizationKind::kNone (batch normalizers make every score depend
  /// on the whole candidate set) — otherwise the query silently runs the
  /// pure exact path.
  /// When a kind has no code kernel or the margin would keep every
  /// candidate (wide quantization range), the query falls back to the
  /// exact scan and QueryStats::two_stage_fallbacks counts it.
  bool two_stage = true;
  /// Candidate count below which two-stage is skipped (the exact scan
  /// is already cheap; the coarse pass would only add overhead).
  size_t two_stage_min_candidates = 4096;
};

/// One ranked retrieval hit.
struct QueryResult {
  int64_t i_id = 0;  ///< key-frame id
  int64_t v_id = 0;  ///< owning video
  double score = 0.0;  ///< smaller = more similar
  /// Raw per-feature distances behind the combined score.
  std::map<FeatureKind, double> feature_distances;
};

/// One ranked video-level hit (DTW over key-frame sequences).
struct VideoQueryResult {
  int64_t v_id = 0;
  double score = 0.0;
};

/// Candidate-pruning statistics of one query, filled through the
/// query methods' optional \p stats out-parameter.
struct CandidateStats {
  size_t candidates = 0;  ///< key frames scored
  size_t total = 0;       ///< key frames in the store
};

/// \brief One key frame after the lock-free preparation stage: encoded
/// image bytes, range bucket and extracted features, but no ids yet
/// (ids are assigned at commit time so parallel preparation cannot
/// perturb them).
struct PreparedKeyFrame {
  /// Index of this key frame in the source frame sequence.
  size_t frame_index = 0;
  /// KEY_FRAMES.I_NAME ("<video name>#<frame index>").
  std::string i_name;
  /// The key frame as PNM bytes (EncodePnm), stored losslessly.
  std::vector<uint8_t> image;
  /// Range-finder bucket (§4.2).
  GrayRange range;
  /// MAJORREGIONS column value (0 when region growing is disabled).
  int64_t major_regions = 0;
  /// Extracted features for every enabled extractor.
  FeatureMap features;
};

/// \brief One video after preparation, ready for an atomic commit.
struct PreparedVideo {
  std::string name;
  std::vector<PreparedKeyFrame> keys;
  /// .vsv container bytes for the VIDEO column: a file ingest's file as
  /// given, EncodeVideoBlob's bytes for in-memory frames. Empty when
  /// EngineOptions::store_video_blob is false.
  std::vector<uint8_t> video_blob;
};

/// Hook invoked by the query methods between pipeline stages (feature
/// extraction -> candidate selection -> ranking). Returning a non-OK
/// status aborts the query with that status before the next stage runs;
/// RetrievalService uses this for per-request deadlines/cancellation.
using QueryCheckpoint = std::function<Status()>;

/// \brief The CBVR system facade.
///
/// Thread-safety: the engine has two locks, so a query never waits on
/// a writer's disk work.
///
/// - The *query lock* (rw_lock(), a writer-preferring vr::SharedMutex)
///   guards what queries read: the range index, the columnar feature
///   cache (FeatureMatrix), the id map and the scorer weights. The
///   query methods (QueryByImage, QueryByImageSingleFeature,
///   QueryByVideo, QueryByStoredId, indexed_key_frames) take it shared
///   and run concurrently from any number of threads; the image and
///   video queries extract their features first and hold it only for
///   select, coarse, rank and fuse/top-k. Ranking shards fanned out to
///   the internal fork pool only read under the calling query's hold.
/// - Feature extraction (a query's, and PrepareKeyFrame's) may fork
///   onto one helper from the same pool; see extraction_budget().
/// - The *writer mutex* (private) serializes the writers — Open,
///   CommitGroup (and so CommitPrepared, IngestFrames,
///   IngestVideoFile), RemoveVideo and Checkpoint — and guards the
///   VideoStore and the persisted matrix cache. A writer persists to
///   the store under it alone, takes the query lock exclusive only to
///   apply the rows in memory (all of a group or none of it, in
///   microseconds), then holds the query lock shared while the matrix
///   cache file syncs. A checkpoint holds the writer mutex alone.
///
/// ApplyRelevanceFeedback takes the query lock exclusive (it rewrites
/// only in-memory scorer weights). The ingest *preparation* methods
/// (ExtractKeyFrames, PrepareKeyFrame, EncodeVideoBlob) take no lock
/// and are safe from any thread. Each query reports its own pruning
/// numbers through its optional CandidateStats out-parameter, so
/// concurrent queries never see each other's. The pager layer below is
/// self-serializing (see pager.h), so store stats snapshots never race
/// ingest I/O.
///
/// The lock→state relationships are annotated (GUARDED_BY on the
/// guarded state, REQUIRES on the locked helpers) and verified by
/// Clang's thread-safety analysis; the prose above is the narrative,
/// the annotations are the contract.
class RetrievalEngine {
 public:
  /// Opens (or creates) the engine over a database directory and warms
  /// the in-memory feature cache and range index from stored key frames.
  static Result<std::unique_ptr<RetrievalEngine>> Open(
      const std::string& dir, EngineOptions options = {});

  /// \name Ingestion (the Administrator role).
  /// @{
  /// Ingests decoded frames as one video; returns its v_id. Composes
  /// the staged ingest methods below: preparation runs lock-free, only
  /// CommitPrepared takes a lock, so a long feature extraction never
  /// blocks concurrent queries.
  Result<int64_t> IngestFrames(const std::vector<Image>& frames,
                               const std::string& name);
  /// Ingests a .vsv file: reads it into memory once, decodes the
  /// frames from that buffer (verifying every frame checksum) and
  /// stores the buffer as the VIDEO blob, byte for byte.
  Result<int64_t> IngestVideoFile(const std::string& path,
                                  const std::string& name);
  /// Removes a video and all of its key frames under the writer mutex:
  /// one journal batch (one sync, all or nothing across a crash), and
  /// memory drops the rows only after it succeeded, under a brief
  /// exclusive hold of the query lock. Queries keep running through
  /// the journal and matrix cache syncs.
  Status RemoveVideo(int64_t v_id) EXCLUDES(writer_mutex_, mutex_);
  /// Flushes the store's tables and truncates the journal under the
  /// writer mutex alone, so queries keep running through its syncs.
  /// The writers call it themselves once the journal passes
  /// kJournalCheckpointBytes; call it directly to empty the journal
  /// sooner.
  Status Checkpoint() EXCLUDES(writer_mutex_);

  /// Journal size past which a commit or remove ends with a
  /// Checkpoint(), so the journal holds at most this much plus one
  /// commit group. The journal carries every video blob, so without a
  /// bound it grows by the size of every ingested video until Close,
  /// and a reopen after a crash replays all of it. 64 MiB is about 20
  /// Table 1 videos of 2.9 MB: a checkpoint then comes once per 20
  /// videos and syncs what they wrote (40-90 ms on a 4-vCPU host),
  /// while recovery replays at most that much, whatever the length of
  /// the session.
  static constexpr uint64_t kJournalCheckpointBytes = uint64_t{64} << 20;
  /// @}

  /// \name Staged ingest (the building blocks of IngestPipeline).
  ///
  /// The three preparation methods are const, take no lock and touch
  /// only state that is immutable after Open (options, extractors, the
  /// key-frame detector) — they are safe to call concurrently from any
  /// number of threads, including while queries and commits run.
  /// CommitGroup (and CommitPrepared, a group of one) is the only
  /// mutating step; it takes the writer mutex, assigns v_id/i_id in
  /// call order and publishes the group all-or-nothing. Feeding
  /// prepared videos to it in submission order therefore yields rows
  /// byte-identical to a serial IngestFrames loop, however the videos
  /// are grouped (the determinism contract that
  /// tests/ingest_pipeline_test.cc enforces).
  /// @{
  /// Stage 1: key-frame detection (§4.1) over an ordered frame list.
  /// Counts the frames and detection time in ingest_stats().
  Result<std::vector<KeyFrame>> ExtractKeyFrames(
      const std::vector<Image>& frames) const EXCLUDES(mutex_);
  /// Stage 2: per-key-frame feature extraction, range bucketing and
  /// image encoding. Independent per key frame — fan this out.
  Result<PreparedKeyFrame> PrepareKeyFrame(const std::string& video_name,
                                           const KeyFrame& key) const
      EXCLUDES(mutex_);
  /// Stage 1b, for in-memory frames only: encode them into the .vsv
  /// blob stored in the VIDEO column. A file ingest stores the file's
  /// own bytes instead. Returns an empty blob when store_video_blob is
  /// off.
  Result<std::vector<uint8_t>> EncodeVideoBlob(
      const std::vector<Image>& frames) const EXCLUDES(mutex_);
  /// Stage 3: commits \p videos in order as one group and returns their
  /// v_ids. Ids are assigned in order, under the writer mutex; every
  /// VIDEO_STORE row and KEY_FRAMES row of the group is journaled as
  /// one batch (one sync, all or nothing across a crash); the range
  /// index and feature cache take the whole group in one exclusive
  /// hold of the query lock, so a concurrent query sees all of the
  /// group or none of it; and matrix.vrm gets one append. Then, past
  /// kJournalCheckpointBytes, the journal is checkpointed. Any error
  /// fails the whole group and publishes none of it: InvalidArgument
  /// before anything is written when a video has no key frames, and a
  /// storage error otherwise (the ids it took stay consumed, as for a
  /// failed single commit).
  Result<std::vector<int64_t>> CommitGroup(std::vector<PreparedVideo> videos)
      EXCLUDES(writer_mutex_, mutex_);
  /// CommitGroup of the one video; returns its v_id.
  Result<int64_t> CommitPrepared(PreparedVideo video)
      EXCLUDES(writer_mutex_, mutex_);
  /// @}

  /// Cumulative ingest counters (see ingest_stats.h). Thread-safe; the
  /// snapshot is internally consistent only when no ingest is racing.
  IngestStats ingest_stats() const;

  /// Cumulative query counters (see query_stats.h). Thread-safe; the
  /// snapshot is internally consistent only when no query is racing.
  QueryStats query_stats() const;

  /// The two-stage coarse scan keeps k * this many candidates (plus the
  /// rows its error margin cannot exclude) for the exact rerank.
  static constexpr size_t kTwoStageCoarseFactor = 4;

  /// Folds decode work performed outside the engine (IngestPipeline
  /// decodes .vsv files on its own workers) into ingest_stats().
  /// Thread-safe (lock-free).
  void AddDecodeWork(uint64_t ns) {
    ingest_counters_.decode_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  /// \name Querying (the User role). Safe to call concurrently from
  /// many threads, including concurrently with ingest. The image and
  /// video queries extract before taking the shared lock, which then
  /// covers only select -> coarse -> rank -> fuse/top-k.
  /// @{
  /// Combined multi-feature ranking of the top \p k key frames. The
  /// optional \p checkpoint runs between pipeline stages; a non-OK
  /// return (e.g. DeadlineExceeded) aborts the query before the next
  /// stage — in particular, ranking never runs after an expired
  /// deadline. A non-null \p stats receives this call's pruning
  /// numbers once selection has run.
  Result<std::vector<QueryResult>> QueryByImage(
      const Image& query, size_t k, const QueryCheckpoint& checkpoint = {},
      CandidateStats* stats = nullptr);
  /// Ranking by a single feature (the per-feature columns of Table 1).
  Result<std::vector<QueryResult>> QueryByImageSingleFeature(
      const Image& query, FeatureKind kind, size_t k,
      const QueryCheckpoint& checkpoint = {}, CandidateStats* stats = nullptr);
  /// Video-to-video search: DTW over key-frame sequences with fused
  /// per-pair feature costs. The checkpoint additionally runs between
  /// per-video DTW alignments. The \p stats counts accumulate across
  /// the whole clip — every (query key frame x stored frame) scoring
  /// counts, and nothing is pruned.
  Result<std::vector<VideoQueryResult>> QueryByVideo(
      const std::vector<Image>& query_frames, size_t k,
      const QueryCheckpoint& checkpoint = {}, CandidateStats* stats = nullptr);
  /// Query-by-stored-id fast path: ranks against the features already
  /// in the columnar cache for key frame \p i_id — no pixel decode, no
  /// extraction. Selection reuses the frame's stored range bucket.
  /// NotFound when the id is not indexed.
  Result<std::vector<QueryResult>> QueryByStoredId(
      int64_t i_id, size_t k, const QueryCheckpoint& checkpoint = {},
      CandidateStats* stats = nullptr);
  /// @}

  /// Mutable fusion weights (defaults: all 1). Requires holding
  /// rw_lock() exclusive — take a WriterMutexLock on rw_lock() around
  /// both reads and writes when queries may be in flight
  /// (ApplyRelevanceFeedback does this for you).
  CombinedScorer* scorer() REQUIRES(mutex_) { return &scorer_; }

  /// The query lock (see the class comment). Public API methods lock
  /// it internally; it is exposed for helpers that mutate the scorer
  /// weights from outside. It does not guard the store: a writer
  /// journals and syncs without it. Lock hierarchy: acquire it before
  /// any pager mutex and never while calling CommitGroup,
  /// CommitPrepared, RemoveVideo or Checkpoint, whose writer mutex
  /// ranks above it (DESIGN.md § Lock
  /// hierarchy).
  SharedMutex& rw_lock() const RETURN_CAPABILITY(mutex_) { return mutex_; }

  /// The persistent store. The returned pointer itself is stable for
  /// the engine's lifetime. The store is guarded by the engine's
  /// private writer mutex, not by rw_lock(): call through it only when
  /// no commit, remove or checkpoint can run at the same time — from
  /// the one thread that does all the writing, or with ingest quiesced.
  /// The pager stats (GetPagerStats) are self-serializing and always
  /// safe.
  VideoStore* store() { return store_.get(); }
  const EngineOptions& options() const { return options_; }

  /// Tables quarantined by a degraded (paranoid = false) open.
  const std::vector<TableDamage>& DamageReport() const
      EXCLUDES(writer_mutex_) {
    MutexLock lock(writer_mutex_);
    return store_->DamageReport();
  }

  /// Number of key frames currently indexed.
  size_t indexed_key_frames() const EXCLUDES(mutex_) {
    ReaderMutexLock lock(mutex_);
    return matrix_.rows();
  }

  /// The core budget every extraction of this engine shares. A query
  /// that extracts (a cache miss) and PrepareKeyFrame each count their
  /// thread in it while they extract, and fork their bank onto one
  /// helper from the internal pool only while fewer threads than
  /// Thread::HardwareConcurrency() are counted; the helper counts too.
  /// So an engine whose cores are all extracting already, such as
  /// under a 4-worker IngestPipeline on 4 cores, extracts serially.
  /// Exposed so a caller can count threads of its own in it.
  CoreBudget& extraction_budget() const { return extract_budget_; }

  /// Counters of the persisted matrix cache: file rows, tombstones,
  /// whether this open was warm (loaded from pages instead of a store
  /// scan), rewrites/appends since open. All-zero when persistence is
  /// disabled or was demoted after a persist failure.
  MatrixStore::Stats matrix_store_stats() const EXCLUDES(writer_mutex_) {
    MutexLock lock(writer_mutex_);
    return matrix_store_ != nullptr ? matrix_store_->stats()
                                    : MatrixStore::Stats{};
  }

 private:
  explicit RetrievalEngine(EngineOptions options)
      : options_(std::move(options)),
        key_frames_(options_.keyframe),
        index_(options_.range) {}

  /// Lock-free ingest counters behind ingest_stats(). Mutated from the
  /// const preparation methods, hence mutable atomics; times in ns.
  struct IngestCounters {
    std::atomic<uint64_t> videos_ingested{0};
    std::atomic<uint64_t> frames_decoded{0};
    std::atomic<uint64_t> keyframes_kept{0};
    std::atomic<uint64_t> decode_ns{0};
    std::atomic<uint64_t> extract_ns{0};
    std::atomic<uint64_t> commit_ns{0};
    std::array<std::atomic<uint64_t>, kNumFeatureKinds> extractor_ns{};
  };

  /// Lock-free query counters behind query_stats(); times in ns.
  struct QueryCounters {
    std::atomic<uint64_t> image_queries{0};
    std::atomic<uint64_t> video_queries{0};
    std::atomic<uint64_t> id_queries{0};
    std::atomic<uint64_t> sharded_ranks{0};
    std::atomic<uint64_t> candidates_scored{0};
    std::atomic<uint64_t> candidates_total{0};
    std::atomic<uint64_t> extract_ns{0};
    std::atomic<uint64_t> select_ns{0};
    std::atomic<uint64_t> rank_ns{0};
    std::atomic<uint64_t> two_stage_queries{0};
    std::atomic<uint64_t> coarse_candidates{0};
    std::atomic<uint64_t> two_stage_fallbacks{0};
    std::atomic<uint64_t> margin_kept{0};
    std::atomic<uint64_t> forked_extractions{0};
  };

  /// Key-frame detection and preparation of every key frame, serially:
  /// the video IngestFrames and IngestVideoFile commit, blob aside.
  Result<PreparedVideo> PrepareFrames(const std::vector<Image>& frames,
                                      const std::string& name) const
      EXCLUDES(mutex_);
  /// Checkpoint() when the journal has passed kJournalCheckpointBytes;
  /// the tail of every commit and remove. A failure is logged, not
  /// returned: the write before it is already durable.
  void CheckpointIfJournalFull() REQUIRES(writer_mutex_);

  /// Rebuilds the feature cache and range index from the store; runs
  /// under both locks purely to satisfy the guarded-state contracts
  /// (Open is single-threaded).
  Status WarmCache() REQUIRES(writer_mutex_, mutex_);

  /// A query frame after extraction: the requested features and the
  /// frame's range-finder bucket (derived from the gray histogram the
  /// plan or the cache already holds, not recomputed from pixels).
  struct ExtractedQuery {
    FeatureMap features;
    GrayRange range;
  };
  /// Extracts \p kinds from \p img. A cached full bank serves any
  /// subset of it. On a miss, the enabled bank runs the fused plan and
  /// is inserted into the cache; any other subset runs ExtractOne per
  /// kind and is never cached (a partial bank could not serve a later
  /// full query). Runs outside the engine lock (EXCLUDES lets
  /// Clang's thread-safety pass reject a call made under it): plans
  /// come from the internal pool, the cache is internally synchronized.
  Result<ExtractedQuery> ExtractWithPlan(
      const Image& img, const std::vector<FeatureKind>& kinds) const
      EXCLUDES(mutex_);
  /// Checks a fused plan out of the pool (creating one over the enabled
  /// extractors when the pool is empty). Plans hold per-thread scratch,
  /// so a plan is used by exactly one extraction at a time.
  std::unique_ptr<ExtractionPlan> AcquirePlan() const EXCLUDES(plan_mutex_);
  /// Returns a plan to the pool (drops it when the pool is full).
  void ReleasePlan(std::unique_ptr<ExtractionPlan> plan) const
      EXCLUDES(plan_mutex_);
  /// plan.ExtractAll of the whole bank, counted in the core budget and
  /// forked onto one helper from fork_pool_ when the budget has a core
  /// to spare (extraction_budget()).
  Result<FeatureMap> ExtractBank(ExtractionPlan& plan, const Image& img,
                                 ExtractionPlan::FrameTimings* timings) const;

  /// The shared tail of the single-frame queries: checkpoint -> select
  /// (timed) -> checkpoint -> Rank (timed). Fills \p stats (when
  /// non-null) with this call's candidate and total counts.
  Result<std::vector<QueryResult>> SelectAndRank(
      const FeatureMap& features, const GrayRange& range,
      const std::vector<FeatureKind>& kinds, size_t k,
      const QueryCheckpoint& checkpoint, CandidateStats* stats)
      REQUIRES_SHARED(mutex_);
  /// Candidate rows of matrix_ for a query bucket: the range index's
  /// lookup per lookup_mode, or every row when use_index is off.
  std::vector<uint32_t> SelectCandidatesByRange(const GrayRange& range)
      REQUIRES_SHARED(mutex_);
  /// Shard count for ranking \p candidates rows (1 = serial).
  size_t NumRankShards(size_t candidates) const;
  /// Runs fn(shard) for every shard in [0, shards) as a fork-join
  /// (util/fork_join.h): the caller and up to shards - 1 helpers from
  /// fork_pool_ claim shards, and the caller waits only on shards a
  /// helper has started. fn must not throw and must only read state
  /// guarded by the caller's shared lock (the analysis cannot follow
  /// the std::function hop, so fn must capture that state through local
  /// aliases bound while the lock is held).
  void RunSharded(size_t shards, const std::function<void(size_t)>& fn) const
      REQUIRES_SHARED(mutex_);
  /// Ranks candidate rows of matrix_. Dispatches to the two-stage path
  /// (coarse quantized scan, then RankExact over the survivors) when
  /// TwoStageEligible, otherwise ranks everything exactly.
  Result<std::vector<QueryResult>> Rank(
      const FeatureMap& query_features, const std::vector<uint32_t>& candidates,
      const std::vector<FeatureKind>& kinds, size_t k) const
      REQUIRES_SHARED(mutex_);
  /// The exact ranking kernel (the pre-two-stage Rank body): double
  /// distance columns, batch fusion, top-k partial sort.
  Result<std::vector<QueryResult>> RankExact(
      const FeatureMap& query_features, const std::vector<uint32_t>& candidates,
      const std::vector<FeatureKind>& kinds, size_t k) const
      REQUIRES_SHARED(mutex_);
  /// Whether this query may use the coarse quantized pre-selection: the
  /// option is on, the candidate set is large enough to benefit, the
  /// final score is batch-independent (single feature, or combined
  /// under NormalizationKind::kNone), and every queried column has a
  /// usable quantization range.
  bool TwoStageEligible(const std::vector<FeatureKind>& kinds,
                        size_t candidates, size_t k) const
      REQUIRES_SHARED(mutex_);
  /// What the coarse stage decided for one query.
  struct CoarseOutcome {
    /// Rows (in candidate order) the exact rerank must score. Empty
    /// and meaningless when fallback is set.
    std::vector<uint32_t> survivors;
    /// The coarse stage could not prune (a kind without a code kernel,
    /// a failed kernel precondition, or a margin wide enough to keep
    /// every candidate): run the exact scan over all candidates.
    bool fallback = false;
    /// Survivors beyond the keep target that the error margin forced
    /// the stage to retain (the price of the exactness guarantee).
    uint64_t margin_kept = 0;
  };
  /// Coarse stage: scores every candidate with the integer code-space
  /// kernels (weighted, unnormalized — under kNone fusion the combined
  /// score is a positive rescale of the weighted sum, so the survivor
  /// set is unchanged), then keeps each candidate whose certified
  /// lower bound does not exceed the \p keep-th smallest certified
  /// upper bound. Rows the kernels cannot bound (absent feature,
  /// length mismatch, uncertifiable row sum) are kept unconditionally.
  /// The survivor set provably contains the exact top-keep (a fortiori
  /// the top-k), independent of shard count.
  CoarseOutcome CoarseSelect(const FeatureMap& query_features,
                             const std::vector<uint32_t>& candidates,
                             const std::vector<FeatureKind>& kinds,
                             size_t keep) const REQUIRES_SHARED(mutex_);

  EngineOptions options_;
  KeyFrameExtractor key_frames_;  ///< stateless after construction
  /// Serializes the writers (Open, CommitGroup, RemoveVideo,
  /// Checkpoint) and guards the store and the persisted matrix cache.
  /// Ranked above the query lock: a writer takes it first and holds it
  /// across its journal, table and matrix cache syncs.
  mutable Mutex writer_mutex_{LockLevel::kEngineWriter, "engine_writer"};
  /// The query lock: guards index_, matrix_, cache_by_id_ and scorer_.
  /// Shared for queries and for a writer's matrix cache sync;
  /// exclusive for a writer's in-memory publish and for feedback.
  mutable SharedMutex mutex_{LockLevel::kEngine, "engine_rw"};
  RangeBucketIndex index_ GUARDED_BY(mutex_);
  CombinedScorer scorer_ GUARDED_BY(mutex_);
  /// The unique_ptr is set once in Open; the *store* behind it is
  /// guarded by the writer mutex (see class comment).
  std::unique_ptr<VideoStore> store_ PT_GUARDED_BY(writer_mutex_);
  std::vector<std::unique_ptr<FeatureExtractor>> extractors_;  ///< immutable after Open
  /// Columnar feature cache; rows are matrix row indices, ids resolve
  /// through cache_by_id_.
  FeatureMatrix matrix_ GUARDED_BY(mutex_);
  std::map<int64_t, size_t> cache_by_id_ GUARDED_BY(mutex_);
  /// Persisted matrix cache (null when persist_matrix is off, or after
  /// a persist failure demoted the cache to memory-only for this run —
  /// the next open sees a stale generation and rebuilds).
  std::unique_ptr<MatrixStore> matrix_store_ GUARDED_BY(writer_mutex_);
  /// Live store generation, tracked incrementally across commits and
  /// removes so persisting never needs an O(N) KeyFrameCount() walk.
  MatrixStore::Generation matrix_gen_ GUARDED_BY(writer_mutex_);
  /// Resolved rank worker count: the most shards a ranking pass
  /// splits into (1 = serial ranking). Set at Open.
  size_t rank_shards_ = 1;
  /// Counts the threads extracting (extraction_budget()). Declared
  /// before fork_pool_: a helper task releases its core here as its
  /// last action, also while the pool drains at destruction.
  mutable CoreBudget extract_budget_{Thread::HardwareConcurrency()};
  /// Helpers for forked extraction and sharded ranking; null on a
  /// single-core machine without rank oversubscription. Created at
  /// Open, immutable after. A rank shard only reads query-local
  /// buffers plus matrix_ under the caller's shared lock; an extraction
  /// unit only its plan's helper context and the prefix the caller
  /// computed before the fork.
  std::unique_ptr<ThreadPool> fork_pool_;
  /// Pool of reusable fused extraction plans. Each plan owns warm
  /// scratch (FFT buffers, arena, a helper lane's context) worth
  /// keeping across queries; the pool is a leaf mutex (never held while
  /// taking mutex_ or any pager lock).
  mutable Mutex plan_mutex_{LockLevel::kLeaf, "engine_plan_pool"};
  mutable std::vector<std::unique_ptr<ExtractionPlan>> plan_pool_
      GUARDED_BY(plan_mutex_);
  /// Content-addressed feature cache for query frames; internally
  /// synchronized (also a leaf). Null when capacity is 0.
  std::unique_ptr<ExtractionCache> extraction_cache_;
  mutable IngestCounters ingest_counters_;
  mutable QueryCounters query_counters_;
};

}  // namespace vr
