#include "service/service.h"

#include <algorithm>
#include <utility>

namespace vr {

RetrievalService::RetrievalService(RetrievalEngine* engine,
                                   ServiceOptions options)
    : engine_(engine), options_(std::move(options)) {
  // Quarantined tables are fixed at engine-open time, so the damage
  // summary attached to every degraded response is built once here.
  const std::vector<TableDamage>& damage = engine_->DamageReport();
  if (!damage.empty()) {
    damage_summary_ = std::to_string(damage.size()) +
                      " table(s) quarantined:";
    for (const TableDamage& d : damage) {
      damage_summary_ += " " + d.table + " (" + d.reason.ToString() + ");";
    }
    damage_summary_.pop_back();  // trailing ';'
  }
  options_.num_workers = std::max<size_t>(1, options_.num_workers);
  capacity_ = options_.num_workers + options_.max_backlog;
  ThreadPoolOptions pool_options;
  pool_options.num_threads = options_.num_workers;
  // The pool queue never needs to reject on its own: admission control
  // happens before TrySubmit, so capacity_ slots always fit.
  pool_options.queue_capacity = capacity_;
  pool_ = std::make_unique<ThreadPool>(pool_options);
}

RetrievalService::~RetrievalService() { Shutdown(); }

std::future<ServiceResponse> RetrievalService::Submit(ServiceRequest request) {
  auto promise = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> future = promise->get_future();
  received_.fetch_add(1, std::memory_order_relaxed);

  auto reject = [&](const char* why) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ServiceResponse response;
    response.status = Status::Unavailable(why);
    promise->set_value(std::move(response));
    return std::move(future);
  };

  if (!accepting_.load(std::memory_order_acquire)) {
    return reject("service is shutting down");
  }
  // Claim an admission slot; overload is refused deterministically
  // instead of queueing without bound.
  const uint64_t slot = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= capacity_) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return reject("service overloaded (admission capacity reached)");
  }

  const Clock::time_point admitted = Clock::now();
  const uint64_t budget_ms = request.deadline_ms != 0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  const Clock::time_point deadline =
      budget_ms != 0 ? admitted + std::chrono::milliseconds(budget_ms)
                     : Clock::time_point::max();

  const bool enqueued = pool_->TrySubmit(
      [this, promise, request = std::move(request), admitted, deadline]() mutable {
        Execute(promise, std::move(request), admitted, deadline);
      });
  if (!enqueued) {
    // Shutdown raced the admission check (or the pool rejected): the
    // slot is released and the caller sees the same kUnavailable as an
    // admission refusal.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return reject("service queue rejected the request");
  }
  return future;
}

ServiceResponse RetrievalService::Query(ServiceRequest request) {
  return Submit(std::move(request)).get();
}

void RetrievalService::Execute(
    std::shared_ptr<std::promise<ServiceResponse>> promise,
    ServiceRequest request, Clock::time_point admitted,
    Clock::time_point deadline) {
  if (options_.worker_hook) options_.worker_hook();

  ServiceResponse response;
  response.request_id = request.request_id;
  if (Clock::now() >= deadline) {
    // Expired while queued: never touches the engine.
    response.status =
        Status::DeadlineExceeded("deadline expired before execution");
  } else {
    QueryCheckpoint checkpoint;
    if (deadline != Clock::time_point::max()) {
      checkpoint = [deadline]() {
        if (Clock::now() >= deadline) {
          return Status::DeadlineExceeded("request deadline expired");
        }
        return Status::OK();
      };
    }
    CandidateStats stats;
    Result<std::vector<QueryResult>> ranked =
        request.mode == QueryMode::kById
            ? engine_->QueryByStoredId(request.frame_id, request.k,
                                       checkpoint, &stats)
            : request.mode == QueryMode::kSingleFeature
                  ? engine_->QueryByImageSingleFeature(request.image,
                                                       request.feature,
                                                       request.k, checkpoint,
                                                       &stats)
                  : engine_->QueryByImage(request.image, request.k,
                                          checkpoint, &stats);
    if (ranked.ok()) {
      response.results = std::move(ranked).value();
      response.stats = stats;
      if (!damage_summary_.empty()) {
        // Degraded read: the ranking succeeded, but over a store with
        // quarantined tables — surface that instead of implying a full
        // answer.
        response.status =
            Status::PartialResult("degraded store: " + damage_summary_);
      }
    } else {
      response.status = ranked.status();
    }
  }

  if (response.status.ok()) {
    served_.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status.IsPartialResult()) {
    served_.fetch_add(1, std::memory_order_relaxed);
    degraded_.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status.IsDeadlineExceeded()) {
    expired_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  latency_.Record(std::chrono::duration<double, std::milli>(Clock::now() -
                                                            admitted)
                      .count());
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  promise->set_value(std::move(response));
}

ServiceStatsSnapshot RetrievalService::GetStats() const {
  ServiceStatsSnapshot snapshot;
  snapshot.received = received_.load(std::memory_order_relaxed);
  snapshot.served = served_.load(std::memory_order_relaxed);
  snapshot.rejected = rejected_.load(std::memory_order_relaxed);
  snapshot.expired = expired_.load(std::memory_order_relaxed);
  snapshot.failed = failed_.load(std::memory_order_relaxed);
  snapshot.degraded = degraded_.load(std::memory_order_relaxed);
  snapshot.in_flight = in_flight_.load(std::memory_order_relaxed);
  snapshot.latency_count = latency_.Count();
  snapshot.p50_ms = latency_.Percentile(50);
  snapshot.p95_ms = latency_.Percentile(95);
  snapshot.p99_ms = latency_.Percentile(99);
  snapshot.pager = engine_->store()->GetPagerStats();
  snapshot.ingest = engine_->ingest_stats();
  snapshot.query = engine_->query_stats();
  return snapshot;
}

void RetrievalService::Shutdown() {
  accepting_.store(false, std::memory_order_release);
  pool_->Shutdown();
}

}  // namespace vr
