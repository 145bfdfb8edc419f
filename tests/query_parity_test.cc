/// \file query_parity_test.cc
/// \brief Parity suite for the accelerated query path.
///
/// The read path was rebuilt around bucket-pruned candidate selection
/// (RangeBucketIndex lookups instead of the historical O(N) cache
/// scan), a columnar FeatureMatrix, and sharded ranking. These tests
/// pin the contract that none of that changed observable results:
///  - candidate selection returns exactly the set the old per-frame
///    range predicate selected, for both RangeLookupModes, and
///    for empty-bucket and single-frame corpora;
///  - sharded ranking (1/2/4 shards) is byte-identical to serial.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "index/range_finder.h"
#include "retrieval/engine.h"
#include "video/synth/generator.h"

namespace vr {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  RemoveDirRecursive(dir);
  return dir;
}

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

/// Key-frame id + stored range, scraped from the KEY_FRAMES table.
struct StoredFrame {
  int64_t i_id = 0;
  GrayRange range;
};

std::vector<StoredFrame> ScanStoredFrames(RetrievalEngine* engine) {
  std::vector<StoredFrame> out;
  EXPECT_TRUE(engine->store()
                  ->ScanKeyFrames([&](const KeyFrameRecord& rec) {
                    out.push_back(StoredFrame{
                        rec.i_id, GrayRange{static_cast<int>(rec.min),
                                            static_cast<int>(rec.max), 0}});
                    return true;
                  })
                  .ok());
  return out;
}

/// The engine's historical candidate predicate: a linear scan over
/// every cached frame, matching on the (min, max) gray interval. This
/// is the reference the bucket-pruned path must reproduce exactly.
std::set<int64_t> ReferenceCandidates(const std::vector<StoredFrame>& frames,
                                      const GrayRange& query,
                                      RangeLookupMode mode) {
  std::set<int64_t> out;
  for (const StoredFrame& f : frames) {
    bool match = false;
    switch (mode) {
      case RangeLookupMode::kExact:
        match = f.range.min == query.min && f.range.max == query.max;
        break;
      case RangeLookupMode::kLineage:
        match = f.range.Contains(query) || query.Contains(f.range);
        break;
    }
    if (match) out.insert(f.i_id);
  }
  return out;
}

/// Result ids of a query that is allowed to return every candidate.
std::set<int64_t> QueryIds(RetrievalEngine* engine, const Image& query,
                           CandidateStats* stats = nullptr) {
  auto results = engine->QueryByImage(query, 1000000, {}, stats);
  EXPECT_TRUE(results.ok()) << results.status();
  std::set<int64_t> ids;
  for (const QueryResult& r : *results) ids.insert(r.i_id);
  EXPECT_EQ(ids.size(), results->size());  // i_ids are unique
  return ids;
}

class CandidateParityTest : public testing::TestWithParam<RangeLookupMode> {};

TEST_P(CandidateParityTest, BucketLookupMatchesScanPredicate) {
  // Dir is per-mode: the instantiations may run concurrently
  // under parallel ctest.
  const std::string dir = FreshDir(
      "parity_modes_" + std::to_string(static_cast<int>(GetParam())));
  EngineOptions options = FastOptions();
  options.use_index = true;
  options.lookup_mode = GetParam();
  auto engine = RetrievalEngine::Open(dir, options).value();
  // A spread of categories so buckets differ (movie dark, e-learning
  // bright, cartoon/news in between).
  for (int c = 0; c < kNumCategories; ++c) {
    // append() rather than "v" + ...: GCC 12's -Wrestrict false-fires
    // on const char* + string&& at -O2 (PR105329) under -Werror.
    ASSERT_TRUE(engine
                    ->IngestFrames(SmallVideo(static_cast<VideoCategory>(c),
                                              30 + static_cast<uint64_t>(c)),
                                   std::string("v").append(std::to_string(c)))
                    .ok());
  }
  const std::vector<StoredFrame> frames = ScanStoredFrames(engine.get());
  ASSERT_FALSE(frames.empty());

  for (uint64_t seed = 60; seed < 66; ++seed) {
    const Image query = SmallVideo(
        static_cast<VideoCategory>(seed % kNumCategories), seed)[0];
    const GrayRange query_range = FindRange(query, engine->options().range);
    const std::set<int64_t> expected =
        ReferenceCandidates(frames, query_range, GetParam());
    CandidateStats stats;
    const std::set<int64_t> actual = QueryIds(engine.get(), query, &stats);
    EXPECT_EQ(actual, expected) << "seed " << seed;
    EXPECT_EQ(stats.candidates, expected.size());
    EXPECT_EQ(stats.total, frames.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, CandidateParityTest,
                         testing::Values(RangeLookupMode::kExact,
                                         RangeLookupMode::kLineage),
                         [](const auto& info) {
                           switch (info.param) {
                             case RangeLookupMode::kExact:
                               return "Exact";
                             case RangeLookupMode::kLineage:
                               return "Lineage";
                           }
                           return "Unknown";
                         });

TEST(QueryParityTest, EmptyBucketYieldsNoCandidates) {
  EngineOptions options = FastOptions();
  options.use_index = true;
  options.lookup_mode = RangeLookupMode::kExact;
  auto engine =
      RetrievalEngine::Open(FreshDir("parity_empty"), options).value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kCartoon, 70), "c").ok());
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kMovie, 71), "m").ok());
  // A uniform mid-gray frame recurses into a narrow bucket no stored
  // synthetic frame occupies.
  Image query(64, 48, 3);
  query.Fill({128, 128, 128});
  const GrayRange query_range = FindRange(query, engine->options().range);
  const std::set<int64_t> expected = ReferenceCandidates(
      ScanStoredFrames(engine.get()), query_range, RangeLookupMode::kExact);
  ASSERT_TRUE(expected.empty()) << "corpus unexpectedly shares the bucket";
  CandidateStats stats;
  const std::set<int64_t> actual = QueryIds(engine.get(), query, &stats);
  EXPECT_TRUE(actual.empty());
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_GT(stats.total, 0u);
}

TEST(QueryParityTest, SingleFrameCorpus) {
  for (const RangeLookupMode mode :
       {RangeLookupMode::kExact, RangeLookupMode::kLineage}) {
    EngineOptions options = FastOptions();
    options.use_index = true;
    options.lookup_mode = mode;
    auto engine =
        RetrievalEngine::Open(FreshDir("parity_single"), options).value();
    const Image frame = SmallVideo(VideoCategory::kNews, 72)[0];
    ASSERT_TRUE(engine->IngestFrames({frame}, "one").ok());
    ASSERT_EQ(engine->indexed_key_frames(), 1u);
    // Querying with the lone stored frame must find it in every mode
    // (its bucket matches itself exactly, hence also by lineage and
    // overlap).
    const std::set<int64_t> actual = QueryIds(engine.get(), frame);
    ASSERT_EQ(actual.size(), 1u);
    const std::vector<StoredFrame> frames = ScanStoredFrames(engine.get());
    const GrayRange query_range = FindRange(frame, engine->options().range);
    EXPECT_EQ(actual, ReferenceCandidates(frames, query_range, mode));
  }
}

/// Opens an engine over \p dir with \p workers rank workers; threshold
/// 1 makes any multi-candidate ranking shard (workers <= 1 disables
/// the pool entirely, i.e. serial ranking).
std::unique_ptr<RetrievalEngine> OpenWithShards(const std::string& dir,
                                                size_t workers) {
  EngineOptions options = FastOptions();
  options.use_index = false;  // every row is a candidate -> big shards
  options.parallel_rank_threshold = 1;
  options.rank_workers = workers;
  // This test must shard even on a 1-CPU machine (the default caps
  // workers at hardware_concurrency).
  options.rank_oversubscribe = true;
  return RetrievalEngine::Open(dir, options).value();
}

TEST(QueryParityTest, ShardedRankingByteIdenticalToSerial) {
  const std::string dir = FreshDir("parity_shards");
  {
    auto engine = OpenWithShards(dir, 1);
    for (int c = 0; c < kNumCategories; ++c) {
      ASSERT_TRUE(engine
                      ->IngestFrames(SmallVideo(static_cast<VideoCategory>(c),
                                                80 + static_cast<uint64_t>(c)),
                                     std::string("v").append(std::to_string(c)))
                      .ok());
    }
    ASSERT_GE(engine->indexed_key_frames(), 4u);
    ASSERT_TRUE(engine->store()->Checkpoint().ok());
  }

  const std::vector<Image> queries = {
      SmallVideo(VideoCategory::kCartoon, 90)[0],
      SmallVideo(VideoCategory::kMovie, 91)[1],
      SmallVideo(VideoCategory::kELearning, 92)[0],
  };

  // Serial baseline (workers=1 -> no rank pool).
  std::vector<std::vector<QueryResult>> baseline;
  {
    auto engine = OpenWithShards(dir, 1);
    for (const Image& q : queries) {
      baseline.push_back(engine->QueryByImage(q, 50).value());
      baseline.push_back(
          engine
              ->QueryByImageSingleFeature(q, FeatureKind::kColorHistogram, 50)
              .value());
    }
    EXPECT_EQ(engine->query_stats().sharded_ranks, 0u);
    ASSERT_FALSE(baseline[0].empty());
  }

  for (const size_t workers : {size_t{2}, size_t{4}}) {
    auto engine = OpenWithShards(dir, workers);
    size_t b = 0;
    for (const Image& q : queries) {
      for (int variant = 0; variant < 2; ++variant) {
        const std::vector<QueryResult> results =
            variant == 0
                ? engine->QueryByImage(q, 50).value()
                : engine
                      ->QueryByImageSingleFeature(
                          q, FeatureKind::kColorHistogram, 50)
                      .value();
        const std::vector<QueryResult>& expected = baseline[b++];
        ASSERT_EQ(results.size(), expected.size()) << workers << " workers";
        for (size_t i = 0; i < results.size(); ++i) {
          EXPECT_EQ(results[i].i_id, expected[i].i_id);
          EXPECT_EQ(results[i].v_id, expected[i].v_id);
          // Bitwise, not approximate: sharding must not perturb a
          // single ulp.
          EXPECT_EQ(results[i].score, expected[i].score);
          EXPECT_EQ(results[i].feature_distances,
                    expected[i].feature_distances);
        }
      }
    }
    // The whole point: these runs really did shard.
    EXPECT_GT(engine->query_stats().sharded_ranks, 0u)
        << workers << " workers";
  }
}

TEST(QueryParityTest, QueryStatsAccumulateAcrossStages) {
  auto engine =
      RetrievalEngine::Open(FreshDir("parity_stats"), FastOptions()).value();
  ASSERT_TRUE(
      engine->IngestFrames(SmallVideo(VideoCategory::kSports, 95), "s").ok());
  const Image query = SmallVideo(VideoCategory::kSports, 96)[0];
  ASSERT_TRUE(engine->QueryByImage(query, 5).ok());
  const QueryStats stats = engine->query_stats();
  EXPECT_EQ(stats.image_queries, 1u);
  EXPECT_EQ(stats.video_queries, 0u);
  EXPECT_GT(stats.candidates_total, 0u);
  EXPECT_GT(stats.extract_ms, 0.0);
}

}  // namespace
}  // namespace vr
