#include "retrieval/ingest_pipeline.h"

#include <chrono>
#include <utility>

#include "video/video_reader.h"

namespace vr {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

IngestPipeline::IngestPipeline(RetrievalEngine* engine,
                               IngestPipelineOptions options)
    : engine_(engine), options_(options) {
  if (options_.workers == 0) {
    options_.workers = Thread::HardwareConcurrency();
    if (options_.workers == 0) options_.workers = 1;
  }
  if (options_.max_in_flight == 0) {
    options_.max_in_flight = 2 * options_.workers;
  }
  if (options_.max_in_flight < 2) options_.max_in_flight = 2;

  ThreadPoolOptions pool_options;
  pool_options.num_threads = options_.workers;
  // Sized so that every in-flight video can fan out its per-key-frame
  // tasks without hitting the inline fallback in the common case.
  pool_options.queue_capacity = options_.max_in_flight * 32;
  pool_ = std::make_unique<ThreadPool>(pool_options);

  start_ = std::chrono::steady_clock::now();
  committer_ = Thread([this] { CommitterLoop(); });
}

IngestPipeline::~IngestPipeline() { Finish(); }

uint64_t IngestPipeline::Submit(IngestJob job) {
  uint64_t ticket = 0;
  {
    MutexLock lock(mutex_);
    while (!finishing_ &&
           submitted_ - (committed_ + failed_) >= options_.max_in_flight) {
      capacity_cv_.Wait(mutex_);
    }
    ticket = submitted_++;
    if (finishing_) {
      // Single-producer contract: Finish already ran on this thread, so
      // the committer is gone — record the error directly.
      results_.emplace_back(
          Status::Internal("Submit called after Finish on IngestPipeline"));
      ++failed_;
      return ticket;
    }
    // Placeholder until the committer writes the real outcome.
    results_.emplace_back(Status::Internal("ingest result pending"));
  }
  auto task = std::make_shared<VideoTask>();
  task->ticket = ticket;
  const bool accepted =
      pool_->Submit([this, task, job = std::move(job)]() mutable {
        RunDecode(task, std::move(job));
      });
  if (!accepted) {
    // Only possible when the pool was shut down underneath us (pipeline
    // teardown racing Submit — a caller contract violation, but fail the
    // ticket instead of hanging the committer).
    EnqueueReady(ticket, Status::Unavailable("ingest pipeline stopped"));
  }
  return ticket;
}

void IngestPipeline::RunDecode(std::shared_ptr<VideoTask> task,
                               IngestJob job) {
  task->name = std::move(job.name);
  std::vector<Image> frames = std::move(job.frames);
  const bool from_file = frames.empty() && !job.path.empty();
  if (from_file) {
    // Read the file once, decode from that buffer (every frame checksum
    // verified), and store the same buffer as the VIDEO blob.
    const auto t0 = std::chrono::steady_clock::now();
    Result<std::vector<uint8_t>> bytes = ReadVideoFile(job.path);
    Status st = bytes.status();
    if (st.ok()) {
      VideoReader reader;
      st = reader.OpenMemory(*bytes);
      Result<std::vector<Image>> decoded =
          st.ok() ? reader.ReadAll() : Result<std::vector<Image>>(st);
      if (decoded.ok()) {
        frames = std::move(decoded).value();
      } else {
        st = decoded.status();
      }
    }
    engine_->AddDecodeWork(ElapsedNs(t0));
    if (!st.ok()) {
      EnqueueReady(task->ticket, st);
      return;
    }
    if (engine_->options().store_video_blob) {
      task->video_blob = std::move(bytes).value();
    }
  }

  Result<std::vector<KeyFrame>> keys = engine_->ExtractKeyFrames(frames);
  if (!keys.ok()) {
    EnqueueReady(task->ticket, keys.status());
    return;
  }
  task->keys = std::move(keys).value();

  if (!from_file) {
    Result<std::vector<uint8_t>> blob = engine_->EncodeVideoBlob(frames);
    if (!blob.ok()) {
      EnqueueReady(task->ticket, blob.status());
      return;
    }
    task->video_blob = std::move(blob).value();
  }
  frames.clear();

  const size_t n = task->keys.size();
  if (n == 0) {
    // Fail this ticket here: in a commit group it would fail the group.
    EnqueueReady(task->ticket,
                 Status::InvalidArgument("prepared video has no key frames"));
    return;
  }
  task->slots.assign(n, Status::Internal("key frame pending"));
  task->remaining.store(n, std::memory_order_release);
  // Fan the per-key-frame work out; keep the last slot for this worker
  // and run inline whenever the queue is full so workers never block
  // waiting on other workers (deadlock freedom).
  for (size_t i = 0; i < n; ++i) {
    const bool offloaded =
        i + 1 < n &&
        pool_->TrySubmit([this, task, i] { RunExtract(task, i); });
    if (!offloaded) RunExtract(task, i);
  }
}

void IngestPipeline::RunExtract(const std::shared_ptr<VideoTask>& task,
                                size_t slot) {
  task->slots[slot] = engine_->PrepareKeyFrame(task->name, task->keys[slot]);
  if (task->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    AssembleAndEnqueue(task);
  }
}

void IngestPipeline::AssembleAndEnqueue(
    const std::shared_ptr<VideoTask>& task) {
  PreparedVideo video;
  video.name = std::move(task->name);
  video.video_blob = std::move(task->video_blob);
  video.keys.reserve(task->slots.size());
  for (Result<PreparedKeyFrame>& slot : task->slots) {
    if (!slot.ok()) {
      EnqueueReady(task->ticket, slot.status());
      return;
    }
    video.keys.push_back(std::move(slot).value());
  }
  EnqueueReady(task->ticket, std::move(video));
}

void IngestPipeline::EnqueueReady(uint64_t ticket,
                                  Result<PreparedVideo> video) {
  {
    MutexLock lock(mutex_);
    ready_.emplace(ticket, std::move(video));
  }
  ready_cv_.NotifyAll();
}

void IngestPipeline::CommitterLoop() {
  for (;;) {
    uint64_t first = 0;
    std::vector<PreparedVideo> group;
    {
      MutexLock lock(mutex_);
      while (ready_.count(next_commit_) == 0 &&
             !(finishing_ && next_commit_ >= submitted_)) {
        ready_cv_.Wait(mutex_);
      }
      auto it = ready_.find(next_commit_);
      if (it == ready_.end()) return;  // finishing and fully drained
      first = next_commit_;
      if (!it->second.ok()) {
        // A failed ticket commits nothing: record its error and go on.
        results_[first] = it->second.status();
        ++failed_;
        ++next_commit_;
        ready_.erase(it);
      } else {
        // The group: the prepared tickets ready in a row from here. A
        // failed or missing ticket ends it.
        while (it != ready_.end() && it->first == first + group.size() &&
               it->second.ok()) {
          group.push_back(std::move(it->second).value());
          it = ready_.erase(it);
        }
      }
    }
    if (!group.empty()) {
      // Commit outside the pipeline mutex: CommitGroup takes the
      // engine's writer lock and does storage I/O.
      const size_t n = group.size();
      Result<std::vector<int64_t>> v_ids = engine_->CommitGroup(std::move(group));
      MutexLock lock(mutex_);
      for (size_t i = 0; i < n; ++i) {
        if (v_ids.ok()) {
          results_[first + i] = (*v_ids)[i];
          ++committed_;
        } else {
          results_[first + i] = v_ids.status();
          ++failed_;
        }
      }
      next_commit_ += n;
    }
    capacity_cv_.NotifyAll();
    ready_cv_.NotifyAll();
  }
}

const std::vector<Result<int64_t>>& IngestPipeline::Finish() {
  {
    MutexLock lock(mutex_);
    if (finished_) return results_;
    finishing_ = true;
  }
  ready_cv_.NotifyAll();
  capacity_cv_.NotifyAll();
  if (committer_.joinable()) committer_.join();
  // The committer saw every ticket, so all worker tasks have enqueued;
  // Shutdown just reaps the (now trivially idle) workers.
  pool_->Shutdown();
  MutexLock lock(mutex_);
  finished_ = true;
  return results_;
}

IngestPipelineStats IngestPipeline::GetStats() const {
  IngestPipelineStats stats;
  {
    MutexLock lock(mutex_);
    stats.submitted = submitted_;
    stats.committed = committed_;
    stats.failed = failed_;
    stats.in_flight = submitted_ - (committed_ + failed_);
    stats.commit_queue_depth = ready_.size();
  }
  stats.worker_queue_depth = pool_->QueueDepth();
  stats.elapsed_ms = static_cast<double>(ElapsedNs(start_)) / 1e6;
  if (stats.elapsed_ms > 0.0) {
    stats.videos_per_sec =
        static_cast<double>(stats.committed) / (stats.elapsed_ms / 1000.0);
  }
  stats.engine = engine_->ingest_stats();
  return stats;
}

}  // namespace vr
