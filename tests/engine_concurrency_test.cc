/// \file engine_concurrency_test.cc
/// \brief Stress test of the engine's reader/writer discipline: query
/// threads race ingest/remove/feedback, then a quiesced engine answers
/// concurrent queries identically to a serial replay.
///
/// Kept small (tiny frames, two cheap features) so it stays fast under
/// ThreadSanitizer — scripts/check_tsan.sh runs this suite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "retrieval/engine.h"
#include "retrieval/feedback.h"
#include "util/fault_injection_env.h"
#include "video/synth/generator.h"

namespace vr {
namespace {

std::vector<Image> TinyVideo(VideoCategory category, uint64_t seed) {
  SyntheticVideoSpec spec;
  spec.category = category;
  spec.width = 64;
  spec.height = 48;
  spec.num_scenes = 2;
  spec.frames_per_scene = 6;
  spec.seed = seed;
  return GenerateVideoFrames(spec).value();
}

class EngineConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("/tmp/vretrieve_concurrency_test_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveDirRecursive(dir_);
    EngineOptions options;
    options.enabled_features = {FeatureKind::kColorHistogram,
                                FeatureKind::kGlcm};
    options.store_video_blob = false;
    // Full scan keeps result sets non-empty on this tiny corpus, so the
    // feedback stage always has judgments to work with.
    options.use_index = false;
    engine_ = RetrievalEngine::Open(dir_, options).value();
    for (int c = 0; c < 2; ++c) {
      ASSERT_TRUE(engine_
                      ->IngestFrames(TinyVideo(static_cast<VideoCategory>(c),
                                               10 + static_cast<uint64_t>(c)),
                                     "base")
                      .ok());
    }
  }

  void TearDown() override {
    engine_.reset();
    RemoveDirRecursive(dir_);
  }

  std::string dir_;
  std::unique_ptr<RetrievalEngine> engine_;
};

TEST_F(EngineConcurrencyTest, QueriesRaceIngestAndFeedback) {
  const Image query = TinyVideo(VideoCategory::kSports, 99)[2];
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<uint64_t> failures{0};

  constexpr int kQueryThreads = 4;
  std::vector<std::thread> readers;
  readers.reserve(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      const Image my_query =
          TinyVideo(VideoCategory::kCartoon, 200 + static_cast<uint64_t>(t))
              [1];
      while (!stop.load(std::memory_order_relaxed)) {
        auto results =
            engine_->QueryByImage(t % 2 == 0 ? query : my_query, 5);
        if (results.ok()) {
          queries_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writers: ingest new videos, remove one, apply relevance feedback —
  // all while the readers hammer the query path. Outcomes are recorded
  // and asserted only after the readers are joined, so a failure never
  // destroys a joinable std::thread.
  Status writer_status = Status::OK();
  size_t seed_count = 0;
  std::vector<int64_t> ingested;
  for (int i = 0; i < 3 && writer_status.ok(); ++i) {
    auto v_id = engine_->IngestFrames(
        TinyVideo(static_cast<VideoCategory>(i % kNumCategories),
                  50 + static_cast<uint64_t>(i)),
        "racer");
    if (v_id.ok()) {
      ingested.push_back(*v_id);
    } else {
      writer_status = v_id.status();
    }
  }
  if (writer_status.ok()) {
    writer_status = engine_->RemoveVideo(ingested[0]);
  }
  if (writer_status.ok()) {
    auto seed_results = engine_->QueryByImage(query, 5);
    if (seed_results.ok()) {
      seed_count = seed_results->size();
      if (seed_count >= 2) {
        FeedbackJudgments judgments;
        judgments.relevant.push_back((*seed_results)[0].i_id);
        for (size_t i = 1; i < seed_results->size(); ++i) {
          judgments.non_relevant.push_back((*seed_results)[i].i_id);
        }
        writer_status = ApplyRelevanceFeedback(engine_.get(), *seed_results,
                                               judgments)
                            .status();
      }
    } else {
      writer_status = seed_results.status();
    }
  }
  // Let the readers observe the final state for a little while.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  ASSERT_GE(seed_count, 2u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(queries_ok.load(), 0u);

  // Quiesced: concurrent queries must equal a serial replay bit for bit.
  const auto reference = engine_->QueryByImage(query, 10);
  ASSERT_TRUE(reference.ok());
  std::vector<std::vector<QueryResult>> concurrent(kQueryThreads);
  std::vector<std::thread> verifiers;
  for (int t = 0; t < kQueryThreads; ++t) {
    verifiers.emplace_back([&, t] {
      auto results = engine_->QueryByImage(query, 10);
      if (results.ok()) concurrent[static_cast<size_t>(t)] = *results;
    });
  }
  for (std::thread& t : verifiers) t.join();
  for (const auto& results : concurrent) {
    ASSERT_EQ(results.size(), reference->size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].i_id, (*reference)[i].i_id);
      EXPECT_EQ(results[i].v_id, (*reference)[i].v_id);
      EXPECT_DOUBLE_EQ(results[i].score, (*reference)[i].score);
    }
  }

  // Reopen: the state the writers built is durable and consistent.
  const size_t indexed = engine_->indexed_key_frames();
  engine_.reset();
  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram,
                              FeatureKind::kGlcm};
  options.store_video_blob = false;
  engine_ = RetrievalEngine::Open(dir_, options).value();
  EXPECT_EQ(engine_->indexed_key_frames(), indexed);
}

TEST_F(EngineConcurrencyTest, ConcurrentQueriesMatchSerialResults) {
  const Image query = TinyVideo(VideoCategory::kMovie, 123)[4];
  const auto serial = engine_->QueryByImage(query, 8);
  ASSERT_TRUE(serial.ok());

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto results = engine_->QueryByImage(query, 8);
        if (!results.ok() || results->size() != serial->size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < results->size(); ++j) {
          if ((*results)[j].i_id != (*serial)[j].i_id ||
              (*results)[j].score != (*serial)[j].score) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(EngineConcurrencyTest, ShardedQueriesRaceIngest) {
  // Rebuild the engine with the accelerated read path fully on:
  // bucket-pruned selection plus sharded ranking (threshold 1 makes
  // every multi-candidate ranking fan out to the rank pool). Queries
  // race ingest so TSan sees shard tasks reading the FeatureMatrix
  // while commits mutate it under the writer lock.
  engine_.reset();
  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram,
                              FeatureKind::kGlcm};
  options.store_video_blob = false;
  options.use_index = true;
  options.lookup_mode = RangeLookupMode::kLineage;
  options.parallel_rank_threshold = 1;
  options.rank_workers = 2;
  engine_ = RetrievalEngine::Open(dir_, options).value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  constexpr int kQueryThreads = 3;
  std::vector<std::thread> readers;
  readers.reserve(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      const Image query =
          TinyVideo(VideoCategory::kCartoon, 300 + static_cast<uint64_t>(t))
              [1];
      while (!stop.load(std::memory_order_relaxed)) {
        auto results = engine_->QueryByImage(query, 5);
        if (!results.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        auto by_video = engine_->QueryByVideo({query}, 2);
        if (!by_video.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Status writer_status = Status::OK();
  std::vector<int64_t> ingested;
  for (int i = 0; i < 3 && writer_status.ok(); ++i) {
    auto v_id = engine_->IngestFrames(
        TinyVideo(static_cast<VideoCategory>(i % kNumCategories),
                  400 + static_cast<uint64_t>(i)),
        "shard_racer");
    if (v_id.ok()) {
      ingested.push_back(*v_id);
    } else {
      writer_status = v_id.status();
    }
  }
  if (writer_status.ok()) {
    writer_status = engine_->RemoveVideo(ingested.back());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  EXPECT_EQ(failures.load(), 0u);

  // Quiesced, the sharded engine still answers deterministically.
  const Image query = TinyVideo(VideoCategory::kMovie, 321)[2];
  const auto a = engine_->QueryByImage(query, 10);
  const auto b = engine_->QueryByImage(query, 10);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].i_id, (*b)[i].i_id);
    EXPECT_EQ((*a)[i].score, (*b)[i].score);
  }
}

/// A query's hits as (key-frame id, score) pairs; empty on error.
using Hits = std::vector<std::pair<int64_t, double>>;

Hits HitsOf(const Result<std::vector<QueryResult>>& result) {
  Hits out;
  if (!result.ok()) return out;
  for (const QueryResult& hit : *result) out.emplace_back(hit.i_id, hit.score);
  return out;
}

/// Waits (bounded) until \p budget counts no thread: a helper task gives
/// its core back as its last action, just after its query returned.
bool BudgetDrains(const CoreBudget& budget) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (budget.running() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return budget.running() == 0;
}

TEST_F(EngineConcurrencyTest, FullCoreBudgetKeepsExtractionSerial) {
  CoreBudget& budget = engine_->extraction_budget();
  ASSERT_EQ(budget.running(), 0u);
  if (budget.cores() < 2) GTEST_SKIP() << "one core: extraction never forks";
  // Every query frame is new to the extraction cache, so each query
  // extracts the whole bank (two whole units here).
  const auto frame = [](uint64_t seed) {
    return TinyVideo(VideoCategory::kSports, 800 + seed)[0];
  };
  {
    std::vector<std::unique_ptr<CoreBudget::Hold>> held;
    for (size_t i = 0; i < budget.cores(); ++i) {
      held.push_back(std::make_unique<CoreBudget::Hold>(budget));
    }
    for (uint64_t seed = 0; seed < 4; ++seed) {
      ASSERT_TRUE(engine_->QueryByImage(frame(seed), 3).ok());
    }
    EXPECT_EQ(engine_->query_stats().forked_extractions, 0u);
    EXPECT_EQ(budget.running(), budget.cores());
  }
  // With the cores free again the next cold query forks.
  ASSERT_TRUE(engine_->QueryByImage(frame(4), 3).ok());
  EXPECT_EQ(engine_->query_stats().forked_extractions, 1u);
  EXPECT_TRUE(BudgetDrains(budget));
}

TEST_F(EngineConcurrencyTest, ForkedQueriesRacePrepareAndCommit) {
  // The default bank, so Gabor's two parts fork, and no extraction
  // cache, so every query extracts. Queries race the staged ingest
  // (PrepareKeyFrame forks under the same budget) and its commits.
  engine_.reset();
  const std::string dir = dir_ + "_bank";
  RemoveDirRecursive(dir);
  EngineOptions options;
  options.store_video_blob = false;
  options.extraction_cache_capacity = 0;
  std::unique_ptr<RetrievalEngine> engine =
      RetrievalEngine::Open(dir, options).value();
  ASSERT_TRUE(
      engine->IngestFrames(TinyVideo(VideoCategory::kSports, 20), "base").ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      const std::vector<Image> clip =
          TinyVideo(VideoCategory::kCartoon, 900 + static_cast<uint64_t>(t));
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (!engine->QueryByImage(clip[i % clip.size()], 5).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Status writer_status = Status::OK();
  for (int v = 0; v < 2 && writer_status.ok(); ++v) {
    const std::vector<Image> frames =
        TinyVideo(static_cast<VideoCategory>(v), 950 + static_cast<uint64_t>(v));
    Result<std::vector<KeyFrame>> keys = engine->ExtractKeyFrames(frames);
    if (!keys.ok()) {
      writer_status = keys.status();
      break;
    }
    PreparedVideo video;
    video.name = "racer";
    for (const KeyFrame& key : *keys) {
      Result<PreparedKeyFrame> prepared = engine->PrepareKeyFrame("racer", key);
      if (!prepared.ok()) {
        writer_status = prepared.status();
        break;
      }
      video.keys.push_back(std::move(*prepared));
    }
    if (writer_status.ok()) {
      writer_status = engine->CommitPrepared(std::move(video)).status();
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  EXPECT_EQ(failures.load(), 0u);
  CoreBudget& budget = engine->extraction_budget();
  if (budget.cores() >= 4) {
    // Two readers and a writer leave a core spare.
    EXPECT_GT(engine->query_stats().forked_extractions, 0u);
  }
  EXPECT_TRUE(BudgetDrains(budget));

  // Quiesced: a forked query ranks exactly like a serial one.
  const Image query = TinyVideo(VideoCategory::kMovie, 960)[1];
  const auto forked = engine->QueryByImage(query, 10);
  std::vector<std::unique_ptr<CoreBudget::Hold>> held;
  for (size_t i = 0; i < budget.cores(); ++i) {
    held.push_back(std::make_unique<CoreBudget::Hold>(budget));
  }
  const auto serial = engine->QueryByImage(query, 10);
  held.clear();
  ASSERT_TRUE(forked.ok() && serial.ok());
  EXPECT_EQ(HitsOf(forked), HitsOf(serial));
  engine.reset();
  RemoveDirRecursive(dir);
}

/// Runs \p query on a second thread while this thread holds the engine
/// lock exclusive. Sets \p extracted when query_stats().extract_ms grew
/// before the wait's deadline, i.e. the query extracted while locked
/// out; the lock is released either way, so the query always finishes.
template <typename Query>
auto RunWhileWriterHolds(RetrievalEngine* engine, Query query,
                         bool* extracted) {
  std::optional<decltype(query())> reply;
  const double before = engine->query_stats().extract_ms;
  std::thread reader;
  {
    WriterMutexLock lock(engine->rw_lock());
    reader = std::thread([&] { reply.emplace(query()); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (engine->query_stats().extract_ms <= before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    *extracted = engine->query_stats().extract_ms > before;
  }
  reader.join();
  return std::move(*reply);
}

TEST_F(EngineConcurrencyTest, QueryExtractsOutsideEngineLock) {
  // Each query uses frames this engine has never seen, so extraction is
  // cold (no extraction-cache hit) and takes measurable time.
  const std::vector<Image> clip = TinyVideo(VideoCategory::kNews, 700);
  bool extracted = false;

  auto image = RunWhileWriterHolds(
      engine_.get(), [&] { return engine_->QueryByImage(clip[1], 5); },
      &extracted);
  EXPECT_TRUE(extracted) << "QueryByImage extracted only after the lock";
  const auto image_serial = engine_->QueryByImage(clip[1], 5);
  ASSERT_TRUE(image.ok() && image_serial.ok());
  ASSERT_EQ(image->size(), image_serial->size());
  for (size_t i = 0; i < image->size(); ++i) {
    EXPECT_EQ((*image)[i].i_id, (*image_serial)[i].i_id);
    EXPECT_EQ((*image)[i].score, (*image_serial)[i].score);
  }

  auto single = RunWhileWriterHolds(
      engine_.get(),
      [&] {
        return engine_->QueryByImageSingleFeature(clip[4], FeatureKind::kGlcm,
                                                  5);
      },
      &extracted);
  EXPECT_TRUE(extracted)
      << "QueryByImageSingleFeature extracted only after the lock";
  const auto single_serial =
      engine_->QueryByImageSingleFeature(clip[4], FeatureKind::kGlcm, 5);
  ASSERT_TRUE(single.ok() && single_serial.ok());
  ASSERT_EQ(single->size(), single_serial->size());
  for (size_t i = 0; i < single->size(); ++i) {
    EXPECT_EQ((*single)[i].i_id, (*single_serial)[i].i_id);
    EXPECT_EQ((*single)[i].score, (*single_serial)[i].score);
  }

  auto video = RunWhileWriterHolds(
      engine_.get(), [&] { return engine_->QueryByVideo(clip, 2); },
      &extracted);
  EXPECT_TRUE(extracted) << "QueryByVideo extracted only after the lock";
  const auto video_serial = engine_->QueryByVideo(clip, 2);
  ASSERT_TRUE(video.ok() && video_serial.ok());
  ASSERT_EQ(video->size(), video_serial->size());
  for (size_t i = 0; i < video->size(); ++i) {
    EXPECT_EQ((*video)[i].v_id, (*video_serial)[i].v_id);
    EXPECT_EQ((*video)[i].score, (*video_serial)[i].score);
  }
}

/// Parks the next store sync of a writer: the sync observer blocks on
/// a latch until Release(), so a test can query while a commit or a
/// remove sits inside its disk work.
class SyncLatch {
 public:
  explicit SyncLatch(FaultInjectionEnv* env) {
    env->SetSyncObserver([this] {
      MutexLock lock(mu_);
      if (!armed_) return;
      armed_ = false;
      parked_ = true;
      cv_.NotifyAll();
      while (!released_) cv_.Wait(mu_);
    });
  }
  void Arm() {
    MutexLock lock(mu_);
    armed_ = true;
    parked_ = false;
    released_ = false;
  }
  /// Waits until a writer is parked; false after \p timeout.
  bool WaitParked(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (!parked_ && std::chrono::steady_clock::now() < deadline) {
      cv_.WaitFor(mu_, std::chrono::milliseconds(10));
    }
    return parked_;
  }
  void Release() {
    MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool armed_ GUARDED_BY(mu_) = false;
  bool parked_ GUARDED_BY(mu_) = false;
  bool released_ GUARDED_BY(mu_) = true;
};

TEST_F(EngineConcurrencyTest, QueriesProceedWhileWriterSyncs) {
  FaultInjectionEnv env;
  SyncLatch latch(&env);
  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram,
                              FeatureKind::kGlcm};
  options.store_video_blob = false;
  options.use_index = false;
  options.env = &env;
  std::unique_ptr<RetrievalEngine> engine =
      RetrievalEngine::Open("parked_sync_db", options).value();
  const int64_t keep =
      engine->IngestFrames(TinyVideo(VideoCategory::kSports, 10), "keep")
          .value();
  const int64_t stored =
      engine->store()->KeyFrameIdsOfVideo(keep).value().front();
  const Image probe = TinyVideo(VideoCategory::kNews, 700)[1];
  const auto answers = [&] {
    return std::make_pair(HitsOf(engine->QueryByImage(probe, 50)),
                          HitsOf(engine->QueryByStoredId(stored, 50)));
  };

  // Runs \p write with its first store sync parked and checks that the
  // queries finish meanwhile with the answers from before the write.
  // On a timeout the writer is released, so the test fails, not hangs.
  const auto expect_queries_pass_parked_writer = [&](const char* what,
                                                     auto write) {
    SCOPED_TRACE(what);
    const auto before = answers();
    ASSERT_FALSE(before.first.empty());
    ASSERT_FALSE(before.second.empty());
    latch.Arm();
    std::thread writer(write);
    const bool parked = latch.WaitParked(std::chrono::seconds(10));
    std::future<decltype(answers())> during;
    bool done = false;
    if (parked) {
      during = std::async(std::launch::async, answers);
      done = during.wait_for(std::chrono::seconds(10)) ==
             std::future_status::ready;
    }
    latch.Release();
    writer.join();
    ASSERT_TRUE(parked) << "the writer never reached a store sync";
    ASSERT_TRUE(done) << "the queries waited on the parked writer";
    EXPECT_EQ(during.get(), before);
    EXPECT_NE(answers(), before) << "the write changed no answer";
  };

  int64_t victim = 0;
  expect_queries_pass_parked_writer("commit", [&] {
    victim = engine
                 ->IngestFrames(TinyVideo(VideoCategory::kSports, 11),
                                "victim")
                 .value();
  });
  ASSERT_NE(victim, 0);
  expect_queries_pass_parked_writer(
      "remove", [&] { ASSERT_TRUE(engine->RemoveVideo(victim).ok()); });
}

}  // namespace
}  // namespace vr
