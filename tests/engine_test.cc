#include "retrieval/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "features/extractor_registry.h"
#include "video/synth/generator.h"

namespace vr {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  RemoveDirRecursive(dir);
  return dir;
}

/// Small fast engine config: three cheap features, tiny videos.
EngineOptions FastOptions() {
  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram,
                              FeatureKind::kGlcm,
                              FeatureKind::kNaiveSignature};
  options.store_video_blob = false;
  return options;
}

std::vector<Image> SmallVideo(VideoCategory category, uint64_t seed) {
  SyntheticVideoSpec spec;
  spec.category = category;
  spec.width = 64;
  spec.height = 48;
  spec.num_scenes = 2;
  spec.frames_per_scene = 6;
  spec.seed = seed;
  return GenerateVideoFrames(spec).value();
}

TEST(EngineTest, IngestPopulatesStoreAndCache) {
  auto engine = RetrievalEngine::Open(FreshDir("eng_ingest"),
                                      FastOptions())
                    .value();
  const auto frames = SmallVideo(VideoCategory::kCartoon, 1);
  Result<int64_t> v_id = engine->IngestFrames(frames, "toon");
  ASSERT_TRUE(v_id.ok()) << v_id.status();
  EXPECT_GT(engine->indexed_key_frames(), 0u);
  EXPECT_EQ(engine->store()->VideoCount().value(), 1u);
  EXPECT_EQ(engine->store()->KeyFrameCount().value(),
            engine->indexed_key_frames());
  // Every stored key frame carries the enabled features.
  ASSERT_TRUE(engine->store()
                  ->ScanKeyFrames([&](const KeyFrameRecord& rec) {
                    EXPECT_EQ(rec.features.size(), 3u);
                    EXPECT_EQ(rec.v_id, *v_id);
                    return true;
                  })
                  .ok());
}

TEST(EngineTest, QueryReturnsRankedResults) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_query"), FastOptions()).value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kCartoon, 1), "a").ok());
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kMovie, 2), "b").ok());
  const auto query_frames = SmallVideo(VideoCategory::kCartoon, 3);
  Result<std::vector<QueryResult>> results =
      engine->QueryByImage(query_frames[0], 5);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_FALSE(results->empty());
  // Scores ascend.
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_LE((*results)[i - 1].score, (*results)[i].score);
  }
  // Per-feature distances populated.
  EXPECT_EQ((*results)[0].feature_distances.size(), 3u);
}

TEST(EngineTest, QueryWithExactFrameFindsItself) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_self"), FastOptions()).value();
  const auto frames = SmallVideo(VideoCategory::kNews, 4);
  const int64_t v_id = engine->IngestFrames(frames, "news").value();
  // Query with the first frame (which is a key frame by construction).
  const auto results = engine->QueryByImage(frames[0], 1).value();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].v_id, v_id);
  EXPECT_NEAR(results[0].score, 0.0, 1e-6);
}

TEST(EngineTest, QueryByStoredIdRanksItselfFirst) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_by_id"), FastOptions()).value();
  const int64_t v_id =
      engine->IngestFrames(SmallVideo(VideoCategory::kNews, 4), "news")
          .value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kMovie, 5), "m").ok());
  const std::vector<int64_t> ids =
      engine->store()->KeyFrameIdsOfVideo(v_id).value();
  ASSERT_FALSE(ids.empty());
  const auto results = engine->QueryByStoredId(ids[0], 5).value();
  ASSERT_FALSE(results.empty());
  // The stored features ARE the query features: distance to itself is 0.
  EXPECT_EQ(results[0].i_id, ids[0]);
  EXPECT_NEAR(results[0].score, 0.0, 1e-12);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].score, results[i].score);
  }
  EXPECT_EQ(engine->query_stats().id_queries, 1u);
  // No extraction ran: the by-id path touches neither plan nor cache.
  EXPECT_EQ(engine->query_stats().cache_hits, 0u);
  EXPECT_EQ(engine->query_stats().cache_misses, 0u);
}

TEST(EngineTest, QueryByStoredIdUnknownIdIsNotFound) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_by_id_404"), FastOptions())
          .value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kNews, 4), "n").ok());
  EXPECT_TRUE(engine->QueryByStoredId(424242, 5).status().IsNotFound());
}

TEST(EngineTest, QueryByStoredIdAfterRemoveIsNotFound) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_by_id_rm"), FastOptions()).value();
  const int64_t v_id =
      engine->IngestFrames(SmallVideo(VideoCategory::kNews, 4), "n").value();
  const int64_t i_id =
      engine->store()->KeyFrameIdsOfVideo(v_id).value().front();
  ASSERT_TRUE(engine->QueryByStoredId(i_id, 1).ok());
  ASSERT_TRUE(engine->RemoveVideo(v_id).ok());
  EXPECT_TRUE(engine->QueryByStoredId(i_id, 1).status().IsNotFound());
}

TEST(EngineTest, ExtractionCacheCountsHitsAndServesIdenticalResults) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_cache"), FastOptions()).value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kCartoon, 1), "a").ok());
  const Image query = SmallVideo(VideoCategory::kCartoon, 3)[0];
  const auto cold = engine->QueryByImage(query, 5).value();
  EXPECT_EQ(engine->query_stats().cache_misses, 1u);
  EXPECT_EQ(engine->query_stats().cache_hits, 0u);
  const auto warm = engine->QueryByImage(query, 5).value();
  EXPECT_EQ(engine->query_stats().cache_misses, 1u);
  EXPECT_EQ(engine->query_stats().cache_hits, 1u);
  ASSERT_EQ(warm.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].i_id, cold[i].i_id);
    EXPECT_EQ(warm[i].score, cold[i].score);  // bit-identical ranking
  }
}

TEST(EngineTest, ExtractionCacheStaysCorrectAcrossIngestAndRemove) {
  // The cache keys on query-frame pixels only — corpus mutations must
  // never serve stale rankings through it, because ranking always runs
  // against the live feature matrix.
  EngineOptions options = FastOptions();
  options.use_index = false;  // rank the whole corpus: growth is visible
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_cache_mut"), options).value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kCartoon, 1), "a").ok());
  const Image query = SmallVideo(VideoCategory::kCartoon, 3)[0];
  CandidateStats stats_before;
  const auto before =
      engine->QueryByImage(query, 50, {}, &stats_before).value();

  // Ingest more frames; the cached query must see the larger corpus.
  const int64_t v2 =
      engine->IngestFrames(SmallVideo(VideoCategory::kMovie, 2), "b").value();
  CandidateStats stats_grown;
  const auto grown =
      engine->QueryByImage(query, 50, {}, &stats_grown).value();
  EXPECT_GT(stats_grown.total, stats_before.total);
  EXPECT_GT(grown.size(), before.size());
  EXPECT_GE(engine->query_stats().cache_hits, 1u);

  // Remove them again; the cached query must match the original run.
  ASSERT_TRUE(engine->RemoveVideo(v2).ok());
  const auto after = engine->QueryByImage(query, 50).value();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].i_id, before[i].i_id);
    EXPECT_EQ(after[i].score, before[i].score);
  }
}

TEST(EngineTest, SingleFeatureQueryUsesOnlyThatFeature) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_single"), FastOptions()).value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kSports, 5), "s").ok());
  const auto query = SmallVideo(VideoCategory::kSports, 6)[0];
  const auto results =
      engine->QueryByImageSingleFeature(query, FeatureKind::kGlcm, 3).value();
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].feature_distances.size(), 1u);
  EXPECT_TRUE(results[0].feature_distances.count(FeatureKind::kGlcm));
  // Asking for a disabled feature fails.
  EXPECT_FALSE(
      engine->QueryByImageSingleFeature(query, FeatureKind::kGabor, 3).ok());
}

TEST(EngineTest, IndexPrunesCandidates) {
  EngineOptions options = FastOptions();
  options.use_index = true;
  options.lookup_mode = RangeLookupMode::kLineage;
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_prune"), options).value();
  // Movie frames are dark, e-learning bright: they land in different
  // branches of the range tree.
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kMovie, 7), "m").ok());
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kELearning, 8), "e").ok());
  const auto query = SmallVideo(VideoCategory::kMovie, 9)[0];
  CandidateStats stats;
  ASSERT_TRUE(engine->QueryByImage(query, 10, {}, &stats).ok());
  EXPECT_GT(stats.total, 0u);
  EXPECT_LT(stats.candidates, stats.total);  // something was pruned
}

TEST(EngineTest, NoIndexScansEverything) {
  EngineOptions options = FastOptions();
  options.use_index = false;
  auto engine = RetrievalEngine::Open(FreshDir("eng_noindex"), options).value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kMovie, 7), "m").ok());
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kELearning, 8), "e").ok());
  const auto query = SmallVideo(VideoCategory::kMovie, 9)[0];
  CandidateStats stats;
  ASSERT_TRUE(engine->QueryByImage(query, 10, {}, &stats).ok());
  EXPECT_EQ(stats.candidates, stats.total);
}

TEST(EngineTest, RemoveVideoDropsItsFrames) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_remove"), FastOptions()).value();
  const int64_t keep =
      engine->IngestFrames(SmallVideo(VideoCategory::kCartoon, 10), "keep")
          .value();
  const int64_t drop =
      engine->IngestFrames(SmallVideo(VideoCategory::kCartoon, 11), "drop")
          .value();
  ASSERT_TRUE(engine->RemoveVideo(drop).ok());
  const auto query = SmallVideo(VideoCategory::kCartoon, 12)[0];
  const auto results = engine->QueryByImage(query, 100).value();
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.v_id, keep);
  }
}

TEST(EngineTest, WarmCacheRestoresStateAcrossReopen) {
  const std::string dir = FreshDir("eng_warm");
  size_t key_frames = 0;
  {
    auto engine = RetrievalEngine::Open(dir, FastOptions()).value();
    ASSERT_TRUE(
        engine->IngestFrames(SmallVideo(VideoCategory::kSports, 13), "s").ok());
    key_frames = engine->indexed_key_frames();
    ASSERT_TRUE(engine->store()->Checkpoint().ok());
  }
  {
    auto engine = RetrievalEngine::Open(dir, FastOptions()).value();
    EXPECT_EQ(engine->indexed_key_frames(), key_frames);
    const auto query = SmallVideo(VideoCategory::kSports, 14)[0];
    EXPECT_TRUE(engine->QueryByImage(query, 3).ok());
  }
}

TEST(EngineTest, QueryByVideoRanksOwnVideoFirst) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_video"), FastOptions()).value();
  const auto video_a = SmallVideo(VideoCategory::kCartoon, 15);
  const auto video_b = SmallVideo(VideoCategory::kMovie, 16);
  const int64_t a = engine->IngestFrames(video_a, "a").value();
  ASSERT_TRUE(engine->IngestFrames(video_b, "b").ok());
  const auto results = engine->QueryByVideo(video_a, 2).value();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].v_id, a);
  EXPECT_LT(results[0].score, results[1].score);
}

TEST(EngineTest, RejectsDegenerateInputs) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_bad"), FastOptions()).value();
  EXPECT_FALSE(engine->IngestFrames({}, "empty").ok());
  EXPECT_FALSE(engine->QueryByImage(Image(), 5).ok());
  EXPECT_FALSE(engine->QueryByVideo({}, 5).ok());
  EngineOptions no_features;
  no_features.enabled_features.clear();
  EXPECT_FALSE(RetrievalEngine::Open(FreshDir("eng_bad2"), no_features).ok());
}

TEST(EngineTest, DefaultFeaturesAreEveryRegisteredKind) {
  // The registry holds what a default engine runs and nothing else. The
  // two kinds that once sat beyond the paper's seven (edge histogram,
  // colour signature) each moved Combined P@20 by -0.00625 to +0.00125
  // when added to the seven (EXPERIMENTS.md § Ablations), inside the
  // Table 1 quality gate's 0.01 tolerance, so they were cut; a kind
  // registered but not enabled by default is code no default query
  // runs.
  std::vector<FeatureKind> registered;
  for (const auto& extractor : MakeAllExtractors()) {
    registered.push_back(extractor->kind());
  }
  EXPECT_EQ(registered, EngineOptions{}.enabled_features);
}

TEST(EngineTest, AllRegisteredFeaturesEndToEnd) {
  // Every registered kind (the paper's seven) in one engine.
  EngineOptions options;
  options.enabled_features.clear();
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    options.enabled_features.push_back(static_cast<FeatureKind>(i));
  }
  options.store_video_blob = false;
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_all10"), options).value();
  const auto frames = SmallVideo(VideoCategory::kNews, 20);
  ASSERT_TRUE(engine->IngestFrames(frames, "n").ok());
  ASSERT_TRUE(engine->store()
                  ->ScanKeyFrames([&](const KeyFrameRecord& rec) {
                    EXPECT_EQ(rec.features.size(),
                              static_cast<size_t>(kNumFeatureKinds));
                    return true;
                  })
                  .ok());
  const auto results = engine->QueryByImage(frames[0], 3).value();
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].feature_distances.size(),
            static_cast<size_t>(kNumFeatureKinds));
  EXPECT_NEAR(results[0].score, 0.0, 1e-6);
}

TEST(EngineTest, NaNFeatureDistanceRanksLast) {
  // A stored vector full of NaN makes every distance against it NaN;
  // before the comparator guard that broke partial_sort's strict weak
  // ordering (UB). NaN must rank worst, never crash.
  EngineOptions options = FastOptions();
  options.use_index = false;  // the poisoned frame is always a candidate
  auto engine = RetrievalEngine::Open(FreshDir("eng_nan"), options).value();
  const auto frames = SmallVideo(VideoCategory::kCartoon, 40);
  const int64_t good = engine->IngestFrames(frames, "good").value();

  // Hand-build a prepared video whose lone key frame carries NaN
  // feature values (a misbehaving extractor, persisted).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  PreparedVideo poisoned;
  poisoned.name = "poisoned";
  PreparedKeyFrame key;
  key.frame_index = 0;
  key.i_name = "poisoned#0";
  key.image = {'P', '5'};  // opaque bytes; never decoded by this test
  key.range = GrayRange{0, 255, 0};
  for (FeatureKind kind : options.enabled_features) {
    key.features.emplace(kind,
                         FeatureVector(FeatureKindName(kind),
                                       std::vector<double>{nan, nan, nan}));
  }
  poisoned.keys.push_back(std::move(key));
  const int64_t bad = engine->CommitPrepared(std::move(poisoned)).value();

  // Single-feature ranking: scores are the raw distances, so the
  // poisoned frame's score is literally NaN and must come last.
  const auto single =
      engine
          ->QueryByImageSingleFeature(frames[0], FeatureKind::kColorHistogram,
                                      100)
          .value();
  ASSERT_GE(single.size(), 2u);
  EXPECT_EQ(single.back().v_id, bad);
  EXPECT_TRUE(std::isnan(single.back().score));
  for (size_t i = 0; i + 1 < single.size(); ++i) {
    EXPECT_EQ(single[i].v_id, good);
    EXPECT_FALSE(std::isnan(single[i].score));
  }

  // Combined ranking survives too (no UB, all candidates returned).
  const auto combined = engine->QueryByImage(frames[0], 100).value();
  EXPECT_EQ(combined.size(), single.size());
}

TEST(EngineTest, VideoQueryStatsCoverWholeClip) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_vstats"), FastOptions()).value();
  const auto video = SmallVideo(VideoCategory::kCartoon, 41);
  ASSERT_TRUE(engine->IngestFrames(video, "a").ok());
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kMovie, 42), "b").ok());
  const size_t rows = engine->indexed_key_frames();

  // Run an image query first, then check the video query reports its
  // own clip-wide accumulation, not the image query's numbers.
  ASSERT_TRUE(engine->QueryByImage(video[0], 5).ok());
  const QueryStats before = engine->query_stats();
  CandidateStats stats;
  ASSERT_TRUE(engine->QueryByVideo(video, 2, {}, &stats).ok());
  // Video search scores every stored frame once per query key frame:
  // a whole multiple of the corpus, at least one clip's worth, and
  // honest (nothing pruned).
  EXPECT_GE(stats.candidates, rows);
  EXPECT_EQ(stats.candidates % rows, 0u);
  EXPECT_EQ(stats.candidates, stats.total);
  const QueryStats after = engine->query_stats();
  EXPECT_EQ(after.video_queries, before.video_queries + 1);
  EXPECT_EQ(after.candidates_scored - before.candidates_scored,
            stats.candidates);
}

TEST(EngineTest, QueryOnEmptyStoreReturnsNothing) {
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_empty"), FastOptions()).value();
  Image query(32, 32, 3);
  query.Fill({10, 20, 30});
  const auto results = engine->QueryByImage(query, 5).value();
  EXPECT_TRUE(results.empty());
}

TEST(EngineTest, JournalStaysBoundedUnderBlobIngest) {
  // More than three times the checkpoint threshold of blob ingest. A
  // commit that takes the journal past the threshold ends with a
  // checkpoint, so after every write the journal is below it, and it
  // never held more than that plus one commit.
  EngineOptions options = FastOptions();
  options.store_video_blob = true;
  const std::string dir = FreshDir("eng_journal_bound");
  auto engine = RetrievalEngine::Open(dir, options).value();
  const std::vector<Image> frames = SmallVideo(VideoCategory::kNews, 5);
  const KeyFrame key = engine->ExtractKeyFrames(frames).value().front();
  const PreparedKeyFrame prepared = engine->PrepareKeyFrame("blob", key).value();

  constexpr size_t kBlobBytes = size_t{6} << 20;
  const uint64_t bound = RetrievalEngine::kJournalCheckpointBytes;
  const auto journal = [&] {
    return engine->store()->database()->JournalBytes().value();
  };
  uint64_t ingested = 0;
  uint64_t last = 0;
  int checkpoints = 0;
  int64_t previous = 0;
  std::vector<uint8_t> blob;
  while (ingested <= 3 * bound) {
    PreparedVideo video;
    video.name = "blob";
    video.keys = {prepared};
    blob.assign(kBlobBytes, static_cast<uint8_t>(ingested >> 20));
    video.video_blob = blob;
    const int64_t v_id = engine->CommitPrepared(std::move(video)).value();
    ingested += kBlobBytes;
    ASSERT_LT(journal(), bound) << "after " << ingested << " blob bytes";
    if (journal() < last) ++checkpoints;
    last = journal();
    // Keep the store itself small; a remove is journaled and bounded too.
    if (previous != 0) {
      ASSERT_TRUE(engine->RemoveVideo(previous).ok());
      ASSERT_LT(journal(), bound);
      last = journal();
    }
    previous = v_id;
  }
  EXPECT_GE(checkpoints, 3);
  engine.reset();

  // The last video survives the reopen whole.
  engine = RetrievalEngine::Open(dir, options).value();
  EXPECT_EQ(engine->store()->GetVideo(previous).value().video, blob);
  EXPECT_EQ(engine->indexed_key_frames(), 1u);
}

TEST(EngineTest, VideoBlobStoredWhenEnabled) {
  EngineOptions options = FastOptions();
  options.store_video_blob = true;
  auto engine =
      RetrievalEngine::Open(FreshDir("eng_blob"), options).value();
  const auto frames = SmallVideo(VideoCategory::kNews, 17);
  const int64_t v_id = engine->IngestFrames(frames, "n").value();
  const VideoRecord rec = engine->store()->GetVideo(v_id).value();
  EXPECT_GT(rec.video.size(), 1000u);  // .vsv bytes present
  EXPECT_FALSE(rec.stream.empty());    // key-frame id list present
}

}  // namespace
}  // namespace vr
