/// \file service.h
/// \brief RetrievalService: a concurrent query front-end for the engine.
///
/// Wraps a RetrievalEngine with a worker pool, admission control and
/// per-request deadlines, turning the single-user pipeline into a
/// multi-user service (the paper's companion survey frames CBVR as
/// exactly this kind of shared retrieval service):
///
///  - Requests are executed on a fixed-size ThreadPool; queries run
///    concurrently under the engine's shared lock.
///  - Admission control bounds work-in-progress: at most num_workers
///    executing plus max_backlog waiting. Excess submissions complete
///    immediately with kUnavailable — overload never hangs a client.
///  - Each request carries a deadline; the engine checks it between
///    pipeline stages, so an expired request returns kDeadlineExceeded
///    without running the ranking stage.
///  - GetStats() snapshots served/rejected/expired counters, a latency
///    histogram (p50/p95/p99) and the storage buffer-pool counters.
///
/// Thread-safety: all public members are safe from any thread.
/// Shutdown() (also run by the destructor) drains admitted requests;
/// their futures all complete.

#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>

#include "retrieval/engine.h"
#include "service/stats.h"
#include "util/thread_pool.h"

namespace vr {

/// How a query request ranks candidates.
enum class QueryMode : uint8_t {
  kCombined = 0,       ///< weighted fusion over all enabled features
  kSingleFeature = 1,  ///< one feature family only
  /// Query by a stored key-frame id: the request carries frame_id
  /// instead of an image, and the engine reads the query features
  /// straight out of the columnar store (no extraction at all).
  kById = 2,
};

/// Tuning for a RetrievalService.
struct ServiceOptions {
  /// Worker threads executing queries.
  size_t num_workers = 4;
  /// Requests allowed to wait beyond the ones executing. Admission
  /// capacity is num_workers + max_backlog.
  size_t max_backlog = 64;
  /// Deadline applied when a request does not carry its own (0 = none).
  uint64_t default_deadline_ms = 0;
  /// Test/bench hook run by the worker after dequeue, before the
  /// deadline check and the engine call. Lets tests hold a worker busy
  /// deterministically; leave unset in production.
  std::function<void()> worker_hook;
};

/// One query as submitted by a client.
struct ServiceRequest {
  /// Query frame; unused (and not shipped) for QueryMode::kById.
  Image image;
  size_t k = 10;
  QueryMode mode = QueryMode::kCombined;
  /// Feature family for QueryMode::kSingleFeature.
  FeatureKind feature = FeatureKind::kColorHistogram;
  /// Stored key-frame id for QueryMode::kById.
  int64_t frame_id = 0;
  /// Relative deadline budget in ms; 0 uses the service default.
  uint64_t deadline_ms = 0;
  /// Client-assigned id echoed in the response. Lets a retrying client
  /// match a response to its request; queries are idempotent, so a
  /// retried id is safe on the server side.
  uint64_t request_id = 0;
};

/// Outcome of one query.
struct ServiceResponse {
  /// kOK, kPartialResult (ranked results over a degraded store — see
  /// the damage summary in the status message), kUnavailable,
  /// kDeadlineExceeded, or an engine error.
  Status status;
  std::vector<QueryResult> results;
  /// Pruning stats of this request's own query, never another
  /// request's; zero unless the query succeeded.
  CandidateStats stats;
  uint64_t request_id = 0;  ///< echo of ServiceRequest::request_id
};

/// \brief Concurrent, admission-controlled query service over one engine.
///
/// Thread-safety: lock-free by construction — admission and every
/// counter below are plain atomics (no capability to annotate), the
/// latency histogram locks internally, and query state is confined to
/// the worker executing it. The engine's reader/writer lock provides
/// the only cross-request synchronization.
class RetrievalService {
 public:
  /// \p engine must outlive the service and stays owned by the caller
  /// (ingest may keep running through it concurrently).
  explicit RetrievalService(RetrievalEngine* engine,
                            ServiceOptions options = {});
  ~RetrievalService();
  RetrievalService(const RetrievalService&) = delete;
  RetrievalService& operator=(const RetrievalService&) = delete;

  /// Submits a query. Always returns a future that completes: with
  /// kUnavailable immediately when admission is refused, otherwise with
  /// the query outcome once a worker finishes it.
  std::future<ServiceResponse> Submit(ServiceRequest request);

  /// Blocking convenience wrapper around Submit.
  ServiceResponse Query(ServiceRequest request);

  /// Counters + latency percentiles + storage buffer-pool statistics.
  ServiceStatsSnapshot GetStats() const;

  /// Stops admission, finishes every admitted request, joins workers.
  /// Idempotent.
  void Shutdown();

  const ServiceOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  void Execute(std::shared_ptr<std::promise<ServiceResponse>> promise,
               ServiceRequest request, Clock::time_point admitted,
               Clock::time_point deadline);

  RetrievalEngine* engine_;
  ServiceOptions options_;
  size_t capacity_;  ///< num_workers + max_backlog
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> accepting_{true};
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> in_flight_{0};
  LatencyHistogram latency_;
  /// Human-readable summary of the engine's quarantined tables,
  /// captured at construction; empty on a healthy store. Attached to
  /// every kPartialResult response.
  std::string damage_summary_;
};

}  // namespace vr
