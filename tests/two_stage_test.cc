/// Two-stage query parity tests.
///
/// The coarse quantized pre-selection must be invisible in results:
/// every query that takes the two-stage path returns the bit-identical
/// top-k of the pure exact path. Eligibility gating is also pinned:
/// combined queries under a batch normalizer silently fall back to the
/// exact path (their scores depend on the whole candidate set), and
/// the min-candidates knob disables the coarse stage for small scans.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "retrieval/engine.h"
#include "video/synth/generator.h"

namespace vr {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  RemoveDirRecursive(dir);
  return dir;
}

EngineOptions BaseOptions() {
  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram,
                              FeatureKind::kGlcm,
                              FeatureKind::kNaiveSignature};
  options.store_video_blob = false;
  // Identity normalization keeps combined scores batch-independent,
  // which is what makes multi-feature two-stage reranking exact.
  options.normalization = NormalizationKind::kNone;
  // The production default (4096) is sized for real corpora; tests run
  // on dozens of frames, so activate immediately.
  options.two_stage_min_candidates = 1;
  return options;
}

std::vector<Image> SmallVideo(VideoCategory category, uint64_t seed) {
  SyntheticVideoSpec spec;
  spec.category = category;
  spec.width = 64;
  spec.height = 48;
  spec.num_scenes = 3;
  spec.frames_per_scene = 6;
  spec.seed = seed;
  return GenerateVideoFrames(spec).value();
}

/// Ingests a small multi-video corpus once; every test reopens it. Big
/// enough (~18 key frames) that a k=3..4 query's coarse stage actually
/// prunes (keep = k * 4 < candidates).
std::vector<int64_t> BuildCorpus(const std::string& dir) {
  auto engine = RetrievalEngine::Open(dir, BaseOptions()).value();
  EXPECT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kCartoon, 1), "a").ok());
  EXPECT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kMovie, 2), "b").ok());
  EXPECT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kNews, 3), "c").ok());
  EXPECT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kSports, 4), "d").ok());
  EXPECT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kELearning, 5), "e").ok());
  EXPECT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kCartoon, 6), "f").ok());
  std::vector<int64_t> ids;
  EXPECT_TRUE(engine->store()
                  ->ScanKeyFrames([&](const KeyFrameRecord& rec) {
                    ids.push_back(rec.i_id);
                    return true;
                  })
                  .ok());
  return ids;
}

void ExpectSameResults(const std::vector<QueryResult>& exact,
                       const std::vector<QueryResult>& staged) {
  ASSERT_EQ(exact.size(), staged.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i].i_id, staged[i].i_id) << "rank " << i;
    EXPECT_EQ(exact[i].v_id, staged[i].v_id) << "rank " << i;
    EXPECT_EQ(exact[i].score, staged[i].score) << "rank " << i;  // bitwise
    EXPECT_EQ(exact[i].feature_distances, staged[i].feature_distances);
  }
}

/// Runs QueryByStoredId over every id under \p options with two_stage
/// off and on, and asserts bit-identical results.
void CheckByIdParity(const std::string& dir, EngineOptions options,
                     const std::vector<int64_t>& ids,
                     bool expect_two_stage_engaged) {
  constexpr size_t kTopK = 3;
  std::map<int64_t, std::vector<QueryResult>> exact;
  {
    EngineOptions off = options;
    off.two_stage = false;
    auto engine = RetrievalEngine::Open(dir, off).value();
    for (int64_t id : ids) {
      exact[id] = engine->QueryByStoredId(id, kTopK).value();
    }
    EXPECT_EQ(engine->query_stats().two_stage_queries, 0u);
  }
  EngineOptions on = options;
  on.two_stage = true;
  auto engine = RetrievalEngine::Open(dir, on).value();
  for (int64_t id : ids) {
    SCOPED_TRACE("id " + std::to_string(id));
    const auto staged = engine->QueryByStoredId(id, kTopK).value();
    ExpectSameResults(exact[id], staged);
  }
  if (expect_two_stage_engaged) {
    // Each eligible query either pruned (two_stage_queries) or hit the
    // counted fallback when the rerank margin kept everything — which
    // of the two depends on the corpus's quantization ranges, but the
    // coarse machinery must have engaged.
    const QueryStats stats = engine->query_stats();
    EXPECT_GT(stats.two_stage_queries + stats.two_stage_fallbacks, 0u);
  }
}

TEST(TwoStageTest, ByIdParityFullScan) {
  const std::string dir = FreshDir("ts_full");
  const std::vector<int64_t> ids = BuildCorpus(dir);
  ASSERT_GT(ids.size(), 12u);  // enough candidates for the coarse stage
  EngineOptions options = BaseOptions();
  options.use_index = false;
  CheckByIdParity(dir, options, ids, /*expect_two_stage_engaged=*/true);
}

TEST(TwoStageTest, ByIdParityAcrossLookupModes) {
  const std::string dir = FreshDir("ts_modes");
  const std::vector<int64_t> ids = BuildCorpus(dir);
  for (RangeLookupMode mode :
       {RangeLookupMode::kExact, RangeLookupMode::kLineage}) {
    SCOPED_TRACE(static_cast<int>(mode));
    EngineOptions options = BaseOptions();
    options.use_index = true;
    options.lookup_mode = mode;
    // Bucket pruning can shrink candidate sets below the coarse win
    // threshold, so two-stage activation is not guaranteed per mode —
    // parity must hold regardless of which path each query took.
    CheckByIdParity(dir, options, ids, /*expect_two_stage_engaged=*/false);
  }
}

TEST(TwoStageTest, SingleFeatureParityUnderBatchNormalization) {
  const std::string dir = FreshDir("ts_single");
  BuildCorpus(dir);
  // Single-feature queries never fuse, so they stay batch-independent
  // under ANY normalization option — two-stage must activate and agree.
  EngineOptions options = BaseOptions();
  options.normalization = NormalizationKind::kMinMax;
  options.use_index = false;
  const auto query = SmallVideo(VideoCategory::kCartoon, 9)[0];

  std::vector<QueryResult> exact;
  {
    EngineOptions off = options;
    off.two_stage = false;
    auto engine = RetrievalEngine::Open(dir, off).value();
    exact = engine->QueryByImageSingleFeature(query,
                                              FeatureKind::kColorHistogram, 4)
                .value();
  }
  auto engine = RetrievalEngine::Open(dir, options).value();
  const auto staged =
      engine->QueryByImageSingleFeature(query, FeatureKind::kColorHistogram, 4)
          .value();
  ExpectSameResults(exact, staged);
  {
    const QueryStats stats = engine->query_stats();
    EXPECT_EQ(stats.two_stage_queries + stats.two_stage_fallbacks, 1u);
  }
}

TEST(TwoStageTest, CombinedQueryFallsBackUnderBatchNormalization) {
  const std::string dir = FreshDir("ts_fallback");
  BuildCorpus(dir);
  EngineOptions options = BaseOptions();
  options.normalization = NormalizationKind::kMinMax;  // batch-dependent
  options.use_index = false;
  auto engine = RetrievalEngine::Open(dir, options).value();
  const auto query = SmallVideo(VideoCategory::kMovie, 10)[0];
  ASSERT_TRUE(engine->QueryByImage(query, 4).ok());
  // Fused scores under min-max depend on the whole candidate batch, so
  // the engine must have used the pure exact path. The eligibility gate
  // (not a coarse-stage failure) rejected it, so the fallback counter
  // stays zero too.
  EXPECT_EQ(engine->query_stats().two_stage_queries, 0u);
  EXPECT_EQ(engine->query_stats().two_stage_fallbacks, 0u);
}

TEST(TwoStageTest, CombinedQueryParityUnderIdentityNormalization) {
  const std::string dir = FreshDir("ts_combined");
  BuildCorpus(dir);
  EngineOptions options = BaseOptions();  // kNone
  options.use_index = false;
  const auto query = SmallVideo(VideoCategory::kNews, 11)[0];

  std::vector<QueryResult> exact;
  {
    EngineOptions off = options;
    off.two_stage = false;
    auto engine = RetrievalEngine::Open(dir, off).value();
    exact = engine->QueryByImage(query, 4).value();
  }
  auto engine = RetrievalEngine::Open(dir, options).value();
  const auto staged = engine->QueryByImage(query, 4).value();
  ExpectSameResults(exact, staged);
  const QueryStats stats = engine->query_stats();
  EXPECT_EQ(stats.two_stage_queries + stats.two_stage_fallbacks, 1u);
}

TEST(TwoStageTest, MinCandidatesGateDisablesCoarseStage) {
  const std::string dir = FreshDir("ts_gate");
  const std::vector<int64_t> ids = BuildCorpus(dir);
  EngineOptions options = BaseOptions();
  options.use_index = false;
  options.two_stage_min_candidates = 100000;  // corpus far smaller
  auto engine = RetrievalEngine::Open(dir, options).value();
  ASSERT_TRUE(engine->QueryByStoredId(ids.front(), 3).ok());
  EXPECT_EQ(engine->query_stats().two_stage_queries, 0u);
  EXPECT_EQ(engine->query_stats().two_stage_fallbacks, 0u);
}

TEST(TwoStageTest, CountersAccumulate) {
  const std::string dir = FreshDir("ts_counters");
  const std::vector<int64_t> ids = BuildCorpus(dir);
  EngineOptions options = BaseOptions();
  options.use_index = false;
  auto engine = RetrievalEngine::Open(dir, options).value();
  constexpr size_t kTopK = 3;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->QueryByStoredId(ids[i], kTopK).ok());
  }
  const QueryStats stats = engine->query_stats();
  // Every eligible query increments exactly one of the two counters.
  EXPECT_EQ(stats.two_stage_queries + stats.two_stage_fallbacks, 3u);
  // A pruning query keeps exactly the k * factor coarse target plus
  // whatever extra rows the rerank margin could not exclude — and never
  // the whole candidate set (that is the counted fallback instead).
  const uint64_t keep = kTopK * RetrievalEngine::kTwoStageCoarseFactor;
  ASSERT_LT(keep, ids.size());
  EXPECT_EQ(stats.coarse_candidates,
            stats.two_stage_queries * keep + stats.margin_kept);
  EXPECT_LE(stats.coarse_candidates,
            stats.two_stage_queries * (ids.size() - 1));
}

TEST(TwoStageTest, CoarseStagePrunesWithTightBounds) {
  // The blocked-L2 signature kernel certifies slack around 1% of the
  // metric's scale on this corpus, so the coarse stage must genuinely
  // prune (not just fall back) — this pins that the margin machinery
  // is not vacuously keeping everything.
  const std::string dir = FreshDir("ts_prune");
  const std::vector<int64_t> ids = BuildCorpus(dir);
  EngineOptions options = BaseOptions();
  options.enabled_features = {FeatureKind::kNaiveSignature};
  options.use_index = false;
  auto engine = RetrievalEngine::Open(dir, options).value();
  constexpr size_t kTopK = 2;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->QueryByStoredId(ids[i], kTopK).ok());
  }
  const QueryStats stats = engine->query_stats();
  EXPECT_EQ(stats.two_stage_queries, 3u);
  EXPECT_EQ(stats.two_stage_fallbacks, 0u);
  EXPECT_LT(stats.coarse_candidates, 3 * ids.size());
}

TEST(TwoStageTest, ParityAfterMidCorpusAppend) {
  // Appending rows can widen a column's quantization range, which
  // re-quantizes the whole shadow column (codes and code sums). Queries
  // issued by the same engine right after the append must still match
  // the exact path bit for bit.
  const std::string dir = FreshDir("ts_append");
  BuildCorpus(dir);
  EngineOptions options = BaseOptions();
  options.use_index = false;
  constexpr size_t kTopK = 3;

  std::vector<int64_t> ids;
  std::map<int64_t, std::vector<QueryResult>> staged;
  {
    auto engine = RetrievalEngine::Open(dir, options).value();
    ASSERT_TRUE(
        engine->IngestFrames(SmallVideo(VideoCategory::kSports, 77), "g")
            .ok());
    ASSERT_TRUE(engine->store()
                    ->ScanKeyFrames([&](const KeyFrameRecord& rec) {
                      ids.push_back(rec.i_id);
                      return true;
                    })
                    .ok());
    for (int64_t id : ids) {
      staged[id] = engine->QueryByStoredId(id, kTopK).value();
    }
    const QueryStats stats = engine->query_stats();
    EXPECT_EQ(stats.two_stage_queries + stats.two_stage_fallbacks,
              ids.size());
  }
  EngineOptions off = options;
  off.two_stage = false;
  auto engine = RetrievalEngine::Open(dir, off).value();
  for (int64_t id : ids) {
    SCOPED_TRACE("id " + std::to_string(id));
    ExpectSameResults(engine->QueryByStoredId(id, kTopK).value(), staged[id]);
  }
}

}  // namespace
}  // namespace vr
