/// \file network_chaos_test.cc
/// \brief Network torture test: a real VrServer/VrClient pair with
/// seeded FaultInjectionTransports on both sides of every connection.
/// Under resets, torn frames, bit flips and stalls, every RPC must end
/// in a success (byte-faithful to the direct engine answer) or a typed
/// error — never a hang, a crash, or silently corrupted results.
///
/// The sweep width is tunable: VR_CHAOS_SEEDS=64 widens it (the
/// check_chaos.sh gate runs at least 16).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "service/client.h"
#include "service/fault_injection_transport.h"
#include "service/server.h"
#include "service/service.h"
#include "util/logging.h"
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

/// Fault totals across all transports of one chaos run.
struct ChaosTotals {
  std::atomic<uint64_t> resets{0};
  std::atomic<uint64_t> corruptions{0};
  std::atomic<uint64_t> stalls{0};
  std::atomic<uint64_t> transports{0};
};

/// Forwards to a FaultInjectionTransport and flushes its counters into
/// the shared totals on destruction (transports die on every retry, so
/// the totals survive them).
class CountingFaultTransport : public Transport {
 public:
  CountingFaultTransport(std::unique_ptr<Transport> inner,
                         const TransportFaultOptions& options,
                         ChaosTotals* totals)
      : fault_(std::make_unique<FaultInjectionTransport>(std::move(inner),
                                                         options)),
        totals_(totals) {
    totals_->transports.fetch_add(1);
  }
  ~CountingFaultTransport() override {
    totals_->resets.fetch_add(fault_->resets());
    totals_->corruptions.fetch_add(fault_->corruptions());
    totals_->stalls.fetch_add(fault_->stalls());
  }

  Result<size_t> Send(const uint8_t* data, size_t len,
                      TransportDeadline deadline) override {
    return fault_->Send(data, len, deadline);
  }
  Result<size_t> Recv(uint8_t* buf, size_t len,
                      TransportDeadline deadline) override {
    return fault_->Recv(buf, len, deadline);
  }
  void Close() override { fault_->Close(); }

 private:
  std::unique_ptr<FaultInjectionTransport> fault_;
  ChaosTotals* totals_;
};

int SweepWidth() {
  const char* env = std::getenv("VR_CHAOS_SEEDS");
  if (env == nullptr) return 16;
  const int n = std::atoi(env);
  return n > 0 ? n : 16;
}

bool IsTypedTransportError(const Status& status) {
  return status.IsIOError() || status.IsUnavailable() ||
         status.IsDeadlineExceeded() || status.IsCorruption();
}

class NetworkChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest -j runs the cases in parallel.
    dir_ = std::string("/tmp/vretrieve_network_chaos_test_") +
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
                                     "chaos")
                      .ok());
    }
    query_ = TestVideo(VideoCategory::kSports, 77)[3];
    baseline_ = engine_->QueryByImage(query_, 5).value();
    ASSERT_FALSE(baseline_.empty());
  }

  void TearDown() override {
    engine_.reset();
    RemoveDirRecursive(dir_);
  }

  std::string dir_;
  std::unique_ptr<RetrievalEngine> engine_;
  Image query_;
  std::vector<QueryResult> baseline_;
};

TEST_F(NetworkChaosTest, SeededFaultScheduleChaosSweep) {
  const int seeds = SweepWidth();
  int successes = 0;
  int typed_failures = 0;
  ChaosTotals totals;

  for (int seed = 1; seed <= seeds; ++seed) {
    TransportFaultOptions faults;
    faults.reset_prob = 0.01;
    faults.truncate_prob = 0.01;
    faults.corrupt_prob = 0.01;
    faults.stall_prob = 0.05;
    faults.stall_ms = 1;

    RetrievalService service(engine_.get());
    ServerOptions server_options;
    std::atomic<uint64_t> server_conns{0};
    server_options.transport_factory =
        [&](int fd) -> std::unique_ptr<Transport> {
      TransportFaultOptions per_conn = faults;
      per_conn.seed = 0x5E12FE00u + static_cast<uint64_t>(seed) * 7919 +
                      server_conns.fetch_add(1);
      return std::make_unique<CountingFaultTransport>(
          SocketTransport::Adopt(fd), per_conn, &totals);
    };
    auto server = VrServer::Start(&service, server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    ClientOptions client_options;
    client_options.rpc_timeout_ms = 5000;
    client_options.retry.max_attempts = 4;
    client_options.retry.initial_backoff_ms = 1;
    client_options.retry.max_backoff_ms = 4;
    client_options.jitter_seed = static_cast<uint64_t>(seed);
    std::atomic<uint64_t> client_conns{0};
    client_options.transport_hook =
        [&](std::unique_ptr<Transport> inner) -> std::unique_ptr<Transport> {
      TransportFaultOptions per_conn = faults;
      per_conn.seed = 0xC11E2700u + static_cast<uint64_t>(seed) * 104729 +
                      client_conns.fetch_add(1);
      return std::make_unique<CountingFaultTransport>(std::move(inner),
                                                      per_conn, &totals);
    };
    auto client =
        VrClient::Connect("127.0.0.1", (*server)->port(), client_options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    for (int rpc = 0; rpc < 6; ++rpc) {
      auto response = (*client)->Query(query_, 5);
      if (response.ok()) {
        // The frame checksum guarantees an accepted response is
        // byte-faithful: it must match the direct engine answer.
        EXPECT_TRUE(response->status.ok()) << response->status.ToString();
        ASSERT_EQ(response->results.size(), baseline_.size())
            << "seed " << seed << " rpc " << rpc;
        for (size_t i = 0; i < baseline_.size(); ++i) {
          EXPECT_EQ(response->results[i].i_id, baseline_[i].i_id);
          EXPECT_EQ(response->results[i].v_id, baseline_[i].v_id);
          EXPECT_DOUBLE_EQ(response->results[i].score, baseline_[i].score);
        }
        ++successes;
      } else {
        EXPECT_TRUE(IsTypedTransportError(response.status()))
            << "seed " << seed << " rpc " << rpc << ": "
            << response.status().ToString();
        ++typed_failures;
      }
    }
    auto stats = (*client)->GetStats();
    if (stats.ok()) {
      EXPECT_GT(stats->received, 0u);
      ++successes;
    } else {
      EXPECT_TRUE(IsTypedTransportError(stats.status()))
          << stats.status().ToString();
      ++typed_failures;
    }

    client->reset();  // close before the server drains
    (*server)->Stop();
  }

  // The sweep must have exercised both sides of the contract: faults
  // fired, and the retry machinery still pushed RPCs through.
  EXPECT_GT(successes, 0);
  EXPECT_GT(totals.transports.load(), static_cast<uint64_t>(seeds));
  EXPECT_GT(totals.resets.load() + totals.corruptions.load() +
                totals.stalls.load(),
            0u);
  VR_LOG(Info) << "chaos sweep: " << seeds << " seeds, " << successes
               << " successes, " << typed_failures << " typed failures, "
               << totals.resets.load() << " resets, "
               << totals.corruptions.load() << " corruptions, "
               << totals.stalls.load() << " stalls";
}

/// One precisely-placed server-side reset: the client's default policy
/// must absorb it without the caller noticing.
TEST_F(NetworkChaosTest, ChaosSingleServerResetIsAbsorbed) {
  RetrievalService service(engine_.get());
  ServerOptions server_options;
  std::atomic<int> conns{0};
  server_options.transport_factory =
      [&](int fd) -> std::unique_ptr<Transport> {
    TransportFaultOptions faults;  // deterministic: no random schedule
    auto transport = std::make_unique<FaultInjectionTransport>(
        SocketTransport::Adopt(fd), faults);
    if (conns.fetch_add(1) == 0) {
      transport->FailNthRecv(1);  // kill the first request read
    }
    return transport;
  };
  auto server = VrServer::Start(&service, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ClientOptions client_options;
  client_options.retry.initial_backoff_ms = 1;
  client_options.retry.max_backoff_ms = 4;
  auto client =
      VrClient::Connect("127.0.0.1", (*server)->port(), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto response = (*client)->Query(query_, 5);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  ASSERT_EQ(response->results.size(), baseline_.size());
  EXPECT_EQ(response->results[0].i_id, baseline_[0].i_id);
  EXPECT_EQ(conns.load(), 2);

  client->reset();
  (*server)->Stop();
}

}  // namespace
}  // namespace vr
