/// \file service_test.cc
/// \brief RetrievalService + VrServer/VrClient: correctness vs the bare
/// engine, admission control, deadlines, stats, and the wire round trip.

#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "service/client.h"
#include "service/server.h"
#include "service/transport.h"
#include "service/wire.h"
#include "storage/pager.h"
#include "video/synth/generator.h"

namespace vr {
namespace {

std::vector<Image> TestVideo(VideoCategory category, uint64_t seed) {
  SyntheticVideoSpec spec;
  spec.category = category;
  spec.width = 96;
  spec.height = 72;
  spec.num_scenes = 2;
  spec.frames_per_scene = 8;
  spec.seed = seed;
  return GenerateVideoFrames(spec).value();
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("/tmp/vretrieve_service_test_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveDirRecursive(dir_);
    EngineOptions options;
    options.enabled_features = {FeatureKind::kColorHistogram,
                                FeatureKind::kGlcm};
    options.store_video_blob = false;
    engine_ = RetrievalEngine::Open(dir_, options).value();
    for (int c = 0; c < 3; ++c) {
      ASSERT_TRUE(engine_
                      ->IngestFrames(TestVideo(static_cast<VideoCategory>(c),
                                               40 + static_cast<uint64_t>(c)),
                                     "svc_test")
                      .ok());
    }
    query_ = TestVideo(VideoCategory::kSports, 77)[3];
  }

  void TearDown() override {
    engine_.reset();
    RemoveDirRecursive(dir_);
  }

  std::string dir_;
  std::unique_ptr<RetrievalEngine> engine_;
  Image query_;
};

TEST_F(ServiceTest, QueryMatchesDirectEngine) {
  const auto direct = engine_->QueryByImage(query_, 5);
  ASSERT_TRUE(direct.ok());

  ServiceOptions options;
  options.num_workers = 2;
  RetrievalService service(engine_.get(), options);
  ServiceRequest request;
  request.image = query_;
  request.k = 5;
  const ServiceResponse response = service.Query(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.results.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(response.results[i].i_id, (*direct)[i].i_id);
    EXPECT_DOUBLE_EQ(response.results[i].score, (*direct)[i].score);
  }
  EXPECT_GT(response.stats.total, 0u);
}

TEST_F(ServiceTest, SingleFeatureModeMatchesDirectEngine) {
  const auto direct = engine_->QueryByImageSingleFeature(
      query_, FeatureKind::kColorHistogram, 4);
  ASSERT_TRUE(direct.ok());

  RetrievalService service(engine_.get());
  ServiceRequest request;
  request.image = query_;
  request.k = 4;
  request.mode = QueryMode::kSingleFeature;
  request.feature = FeatureKind::kColorHistogram;
  const ServiceResponse response = service.Query(std::move(request));
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.results.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(response.results[i].i_id, (*direct)[i].i_id);
  }
}

TEST_F(ServiceTest, ByIdModeMatchesDirectEngine) {
  // Key-frame ids start at 1; the corpus seeded in SetUp has several.
  const int64_t v_id = engine_->store()->ListVideos().value().front().v_id;
  const int64_t i_id =
      engine_->store()->KeyFrameIdsOfVideo(v_id).value().front();
  const auto direct = engine_->QueryByStoredId(i_id, 5);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  RetrievalService service(engine_.get());
  ServiceRequest request;
  request.mode = QueryMode::kById;
  request.frame_id = i_id;
  request.k = 5;
  const ServiceResponse response = service.Query(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.results.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(response.results[i].i_id, (*direct)[i].i_id);
    EXPECT_DOUBLE_EQ(response.results[i].score, (*direct)[i].score);
  }
}

TEST_F(ServiceTest, ConcurrentResponsesCarryTheirOwnCandidateStats) {
  // The other two categories widen the spread of range buckets, so the
  // stored ids do not all select the same number of candidates.
  for (int c = 3; c < kNumCategories; ++c) {
    ASSERT_TRUE(engine_
                    ->IngestFrames(TestVideo(static_cast<VideoCategory>(c),
                                             40 + static_cast<uint64_t>(c)),
                                   "svc_test")
                    .ok());
  }
  std::vector<int64_t> ids;
  std::map<int64_t, CandidateStats> expected;
  std::set<size_t> distinct;
  const std::vector<VideoRecord> videos =
      engine_->store()->ListVideos().value();
  for (const VideoRecord& video : videos) {
    const std::vector<int64_t> video_ids =
        engine_->store()->KeyFrameIdsOfVideo(video.v_id).value();
    for (int64_t id : video_ids) {
      CandidateStats stats;
      ASSERT_TRUE(engine_->QueryByStoredId(id, 5, {}, &stats).ok());
      ids.push_back(id);
      expected[id] = stats;
      distinct.insert(stats.candidates);
    }
  }
  ASSERT_GE(distinct.size(), 2u)
      << "every id selects as many candidates; mixed-up stats would pass";

  RetrievalService service(engine_.get());  // default: 4 workers
  for (size_t round = 0; round < 100; ++round) {
    std::vector<std::pair<int64_t, std::future<ServiceResponse>>> pending;
    for (size_t i = 0; i < 16; ++i) {
      ServiceRequest request;
      request.mode = QueryMode::kById;
      request.frame_id = ids[(round * 16 + i) * 7 % ids.size()];
      request.k = 5;
      const int64_t id = request.frame_id;
      pending.emplace_back(id, service.Submit(std::move(request)));
    }
    for (auto& [id, future] : pending) {
      const ServiceResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_EQ(response.stats.candidates, expected[id].candidates)
          << "id " << id << " in round " << round;
      ASSERT_EQ(response.stats.total, expected[id].total)
          << "id " << id << " in round " << round;
    }
  }
}

TEST_F(ServiceTest, ByIdModeUnknownIdFailsTyped) {
  RetrievalService service(engine_.get());
  ServiceRequest request;
  request.mode = QueryMode::kById;
  request.frame_id = 999999;
  const ServiceResponse response = service.Query(std::move(request));
  EXPECT_TRUE(response.status.IsNotFound()) << response.status.ToString();
}

TEST_F(ServiceTest, ByIdRpcRoundTripCarriesStatsCounters) {
  const int64_t v_id = engine_->store()->ListVideos().value().front().v_id;
  const int64_t i_id =
      engine_->store()->KeyFrameIdsOfVideo(v_id).value().front();
  const auto direct = engine_->QueryByStoredId(i_id, 5);
  ASSERT_TRUE(direct.ok());

  RetrievalService service(engine_.get());
  auto server = VrServer::Start(&service);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = VrClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto response = (*client)->QueryById(i_id, 5);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  ASSERT_EQ(response->results.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(response->results[i].i_id, (*direct)[i].i_id);
    EXPECT_NEAR(response->results[i].score, (*direct)[i].score, 1e-12);
  }

  // The same image query twice: a cache miss then a hit, both visible
  // through the stats RPC alongside the by-id counter.
  ASSERT_TRUE((*client)->Query(query_, 3).ok());
  ASSERT_TRUE((*client)->Query(query_, 3).ok());
  auto stats = (*client)->GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Two by-id queries hit this engine: the direct baseline above and
  // the RPC (the stats RPC reports engine-lifetime counters).
  EXPECT_EQ(stats->query.id_queries, 2u);
  EXPECT_GE(stats->query.cache_misses, 1u);
  EXPECT_GE(stats->query.cache_hits, 1u);

  (*server)->Stop();
}

TEST_F(ServiceTest, OverloadRejectsDeterministically) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_backlog = 1;  // admission capacity: 2
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> entered{0};
  options.worker_hook = [gate, &entered] {
    entered.fetch_add(1);
    gate.wait();
  };
  RetrievalService service(engine_.get(), options);

  auto make_request = [this] {
    ServiceRequest request;
    request.image = query_;
    request.k = 3;
    return request;
  };
  auto first = service.Submit(make_request());
  auto second = service.Submit(make_request());
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Capacity (1 worker + 1 backlog) is claimed: further submissions
  // complete immediately with kUnavailable instead of hanging.
  for (int i = 0; i < 4; ++i) {
    auto rejected = service.Submit(make_request());
    ASSERT_EQ(rejected.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_TRUE(rejected.get().status.IsUnavailable());
  }
  const ServiceStatsSnapshot mid = service.GetStats();
  EXPECT_EQ(mid.rejected, 4u);
  EXPECT_EQ(mid.in_flight, 2u);

  release.set_value();
  EXPECT_TRUE(first.get().status.ok());
  EXPECT_TRUE(second.get().status.ok());
  const ServiceStatsSnapshot done = service.GetStats();
  EXPECT_EQ(done.served, 2u);
  EXPECT_EQ(done.received, 6u);
  EXPECT_EQ(done.in_flight, 0u);
}

TEST_F(ServiceTest, ExpiredDeadlineSkipsExecution) {
  ServiceOptions options;
  options.num_workers = 1;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> gated{true};
  options.worker_hook = [gate, &gated] {
    if (gated.exchange(false)) gate.wait();
  };
  RetrievalService service(engine_.get(), options);

  ServiceRequest request;
  request.image = query_;
  request.deadline_ms = 1;
  auto future = service.Submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  release.set_value();

  const ServiceResponse response = future.get();
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_TRUE(response.results.empty());
  const ServiceStatsSnapshot stats = service.GetStats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.served, 0u);
}

TEST_F(ServiceTest, GenerousDeadlineStillServes) {
  ServiceOptions options;
  options.default_deadline_ms = 60000;
  RetrievalService service(engine_.get(), options);
  ServiceRequest request;
  request.image = query_;
  const ServiceResponse response = service.Query(std::move(request));
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.results.empty());
}

TEST_F(ServiceTest, EngineCheckpointAbortsBeforeRanking) {
  // The engine honors a failing checkpoint between pipeline stages:
  // the query aborts with that status instead of ranking.
  int calls = 0;
  auto result = engine_->QueryByImage(query_, 5, [&calls]() -> Status {
    if (++calls >= 2) return Status::DeadlineExceeded("checkpoint fired");
    return Status::OK();
  });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  EXPECT_GE(calls, 2);
}

TEST_F(ServiceTest, StatsSnapshotIncludesPagerCounters) {
  RetrievalService service(engine_.get());
  ServiceRequest request;
  request.image = query_;
  ASSERT_TRUE(service.Query(std::move(request)).status.ok());
  const ServiceStatsSnapshot stats = service.GetStats();
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.latency_count, 1u);
  EXPECT_GT(stats.p50_ms, 0.0);
  // Ingest in SetUp went through the pager.
  EXPECT_GT(stats.pager.fetches, 0u);
  EXPECT_EQ(stats.pager.fetches, stats.pager.hits + stats.pager.misses);
}

TEST_F(ServiceTest, ShutdownCompletesOutstandingFutures) {
  ServiceOptions options;
  options.num_workers = 1;
  RetrievalService service(engine_.get(), options);
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    ServiceRequest request;
    request.image = query_;
    request.k = 2;
    futures.push_back(service.Submit(std::move(request)));
  }
  service.Shutdown();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const ServiceResponse response = f.get();
    EXPECT_TRUE(response.status.ok() || response.status.IsUnavailable());
  }
  // After shutdown, everything is refused without hanging.
  ServiceRequest request;
  request.image = query_;
  EXPECT_TRUE(service.Query(std::move(request)).status.IsUnavailable());
}

TEST_F(ServiceTest, ServerClientRoundTrip) {
  const auto direct = engine_->QueryByImage(query_, 5);
  ASSERT_TRUE(direct.ok());

  RetrievalService service(engine_.get());
  auto server = VrServer::Start(&service);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE((*server)->port(), 0);

  auto client = VrClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto response = (*client)->Query(query_, 5);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  ASSERT_EQ(response->results.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(response->results[i].i_id, (*direct)[i].i_id);
    EXPECT_NEAR(response->results[i].score, (*direct)[i].score, 1e-12);
  }

  auto stats = (*client)->GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->served, 1u);
  EXPECT_GT(stats->pager.fetches, 0u);

  // A second client works concurrently with the first.
  auto client2 = VrClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client2.ok());
  auto response2 = (*client2)->Query(query_, 2, QueryMode::kSingleFeature,
                                     FeatureKind::kGlcm);
  ASSERT_TRUE(response2.ok());
  EXPECT_TRUE(response2->status.ok());

  (*server)->Stop();
}

TEST_F(ServiceTest, ShutdownRpcStopsServer) {
  RetrievalService service(engine_.get());
  auto server = VrServer::Start(&service);
  ASSERT_TRUE(server.ok());

  auto client = VrClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Shutdown().ok());

  (*server)->Wait();  // woken by the RPC
  (*server)->Stop();
  // The listener is gone: new connections are refused.
  EXPECT_FALSE(VrClient::Connect("127.0.0.1", (*server)->port()).ok());
}

TEST_F(ServiceTest, ClientConnectFailsCleanly) {
  // Port 1 is privileged and unbound: connect must fail with a
  // diagnosable status, not hang.
  auto client = VrClient::Connect("127.0.0.1", 1);
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsIOError());
}

/// Overwrites \p count bytes at \p offset of \p path with 0xEE.
void CorruptFile(const std::string& path, long offset, size_t count) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, offset, SEEK_SET);
  const std::vector<uint8_t> garbage(count, 0xEE);
  std::fwrite(garbage.data(), 1, garbage.size(), f);
  std::fclose(f);
}

TEST_F(ServiceTest, DegradedStoreServesPartialResultsEndToEnd) {
  const auto direct = engine_->QueryByImage(query_, 5);
  ASSERT_TRUE(direct.ok());
  const std::vector<QueryResult> baseline = *direct;

  // Smash a data page of the VIDEO_STORE table. KEY_FRAMES (the ranking
  // path) stays healthy, so a degraded open quarantines VIDEO_STORE and
  // still answers queries.
  engine_.reset();
  CorruptFile(dir_ + "/VIDEO_STORE.heap",
              static_cast<long>(kPageSize + Pager::kChecksumSize) + 200, 32);

  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram,
                              FeatureKind::kGlcm};
  options.store_video_blob = false;
  EXPECT_TRUE(RetrievalEngine::Open(dir_, options).status().IsCorruption());

  options.paranoid = false;
  auto degraded = RetrievalEngine::Open(dir_, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  engine_ = std::move(*degraded);
  ASSERT_EQ(engine_->DamageReport().size(), 1u);
  EXPECT_EQ(engine_->DamageReport()[0].table, "VIDEO_STORE");

  RetrievalService service(engine_.get());
  auto server = VrServer::Start(&service);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = VrClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto response = (*client)->Query(query_, 5);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsPartialResult())
      << response->status.ToString();
  EXPECT_NE(response->status.ToString().find("VIDEO_STORE"),
            std::string::npos)
      << response->status.ToString();
  // Ranked results still come back, identical to the healthy baseline.
  ASSERT_EQ(response->results.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(response->results[i].i_id, baseline[i].i_id);
    EXPECT_NEAR(response->results[i].score, baseline[i].score, 1e-12);
  }

  auto stats = (*client)->GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->degraded, 1u);
  EXPECT_EQ(stats->served, 1u);

  client->reset();
  (*server)->Stop();
}

TEST_F(ServiceTest, ConnectionCapRejectsWithTypedError) {
  RetrievalService service(engine_.get());
  ServerOptions options;
  options.max_connections = 1;
  auto server = VrServer::Start(&service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto first = VrClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(first.ok());
  // A served query guarantees the handler occupies the one slot.
  ASSERT_TRUE((*first)->Query(query_, 2).ok());

  ClientOptions no_retry;
  no_retry.retry.max_attempts = 1;
  auto second =
      VrClient::Connect("127.0.0.1", (*server)->port(), no_retry);
  ASSERT_TRUE(second.ok());  // TCP connect succeeds; the RPC is refused
  auto rejected = (*second)->Query(query_, 2);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable())
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().ToString().find("connection limit"),
            std::string::npos);

  // Releasing the slot lets the next client in.
  first->reset();
  auto third = VrClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(third.ok());
  auto served = [&] {
    // The freed slot appears when the server reaps the old handler, one
    // accept later; a retried query absorbs the race.
    for (int i = 0; i < 50; ++i) {
      auto response = (*third)->Query(query_, 2);
      if (response.ok()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }();
  EXPECT_TRUE(served);

  third->reset();
  second->reset();
  (*server)->Stop();
}

TEST_F(ServiceTest, SlowClientIsEvictedAtReadDeadline) {
  RetrievalService service(engine_.get());
  ServerOptions options;
  options.read_deadline_ms = 100;
  auto server = VrServer::Start(&service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // A raw transport that sends two bytes of a frame and then stalls.
  auto socket = SocketTransport::Connect("127.0.0.1", (*server)->port(),
                                         /*timeout_ms=*/2000);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  const uint8_t half_frame[2] = {0x10, 0x00};
  ASSERT_TRUE((*socket)->Send(half_frame, sizeof(half_frame), kNoDeadline)
                  .ok());

  // Within ~read_deadline_ms the server evicts us with a typed error
  // frame, then closes. RecvFrame's own deadline bounds the test.
  auto frame = RecvFrame(socket->get(), DeadlineAfterMs(5000));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MessageType::kErrorResponse);
  Status evicted;
  ASSERT_TRUE(DecodeErrorResponse(frame->payload, &evicted).ok());
  EXPECT_TRUE(evicted.IsUnavailable()) << evicted.ToString();
  EXPECT_NE(evicted.ToString().find("read deadline"), std::string::npos);
  auto after = RecvFrame(socket->get(), DeadlineAfterMs(5000));
  EXPECT_FALSE(after.ok());  // connection closed after the eviction

  (*server)->Stop();
}

TEST_F(ServiceTest, StopDrainsConnectionsWithinTimeout) {
  RetrievalService service(engine_.get());
  ServerOptions options;
  options.drain_timeout_ms = 5000;
  auto server = VrServer::Start(&service, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = VrClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Query(query_, 3).ok());

  // Stop with an idle-but-open connection: the drain shuts the reader
  // down and returns well before the timeout, not after it.
  const auto start = std::chrono::steady_clock::now();
  (*server)->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(4000));

  // The listener is gone; the client cannot reconnect.
  EXPECT_FALSE((*client)->Query(query_, 3).ok());
}

}  // namespace
}  // namespace vr
