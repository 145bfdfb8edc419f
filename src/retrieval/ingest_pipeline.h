/// \file ingest_pipeline.h
/// \brief Staged parallel ingest: decode → keyframe → extract → commit.
///
/// The paper's offline stage — frame decomposition, key-frame
/// extraction (§4.1) and the per-key-frame feature extractors
/// (§4.3–4.8) — is embarrassingly parallel per video and per key frame.
/// This pipeline fans that work out over a ThreadPool while keeping the
/// commit step serial and deterministic:
///
///   Submit(job) ─┐  workers (ThreadPool)                committer thread
///                ▼                                            ▼
///   [decode .vsv / take frames]──►[extract features     [reorder buffer:
///   [key-frame detection     ]    per key frame,         commit strictly
///   [.vsv blob re-encode     ]    fan-out w/ inline      in Submit order]
///                                 fallback]                   │
///                                                             ▼
///                                              RetrievalEngine::CommitPrepared
///                                              (writer mutex, one batched
///                                               journal sync per video)
///
/// Determinism: v_id / i_id are assigned by CommitPrepared in commit
/// order, and the committer commits strictly in Submit order, so the
/// stored rows are byte-identical to a serial IngestFrames loop over
/// the same jobs regardless of worker count (enforced by
/// tests/ingest_pipeline_test.cc, including under TSan).
///
/// Backpressure: at most `max_in_flight` submitted-but-uncommitted
/// videos exist at once; Submit blocks past that, bounding memory and
/// keeping the committer's reorder buffer small. Workers never block on
/// queues (per-key-frame tasks fall back to inline execution when the
/// pool queue is full), so the pipeline cannot deadlock.
///
/// Query latency stays bounded during bulk ingest because the engine
/// lock is only held exclusive inside CommitPrepared — preparation, the
/// expensive part, runs lock-free.
///
/// Thread-safety: Submit/Finish are intended for one producer thread
/// (the administrator); GetStats is safe from any thread. A pipeline is
/// one-shot: after Finish() returns, create a new pipeline for the next
/// bulk load.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "retrieval/engine.h"
#include "util/mutex.h"
#include "util/thread.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace vr {

/// One video to ingest: either already-decoded frames or a .vsv path
/// (frames win when both are set).
struct IngestJob {
  std::string name;
  std::vector<Image> frames;
  std::string path;
};

/// Tuning for an IngestPipeline.
struct IngestPipelineOptions {
  /// Worker threads for decode + extraction; 0 means one per hardware
  /// thread.
  size_t workers = 0;
  /// Submitted-but-uncommitted videos allowed before Submit blocks;
  /// 0 means 2 * workers (at least 2).
  size_t max_in_flight = 0;
};

/// \brief Pipeline-run counters (GetStats snapshot). The engine-wide
/// cumulative counters ride along in `engine`.
struct IngestPipelineStats {
  uint64_t submitted = 0;  ///< jobs accepted by Submit
  uint64_t committed = 0;  ///< videos persisted + published
  uint64_t failed = 0;     ///< jobs that errored in any stage
  uint64_t in_flight = 0;  ///< submitted - (committed + failed)
  /// Tasks waiting in the worker pool queue (advisory).
  size_t worker_queue_depth = 0;
  /// Prepared videos waiting for the committer (reorder buffer size).
  size_t commit_queue_depth = 0;
  double elapsed_ms = 0.0;    ///< since pipeline construction
  double videos_per_sec = 0.0;  ///< committed / elapsed
  IngestStats engine;  ///< engine-level cumulative ingest counters
};

/// \brief Parallel staged ingest over one RetrievalEngine.
class IngestPipeline {
 public:
  /// \p engine must outlive the pipeline and stays owned by the caller;
  /// queries may keep running through it concurrently.
  explicit IngestPipeline(RetrievalEngine* engine,
                          IngestPipelineOptions options = {});
  ~IngestPipeline();
  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Enqueues one video and returns its ticket (index into Finish()'s
  /// result vector; tickets are issued 0, 1, 2, … in call order).
  /// Blocks while max_in_flight videos are pending. Calling Submit
  /// after Finish is an error (the ticket is still consumed and its
  /// result is an error Status).
  uint64_t Submit(IngestJob job) EXCLUDES(mutex_);

  /// Waits for every submitted job to commit or fail, stops the
  /// committer and returns one Result per ticket: the assigned v_id, or
  /// the error of whichever stage failed that job. Idempotent.
  const std::vector<Result<int64_t>>& Finish() EXCLUDES(mutex_);

  /// Point-in-time pipeline counters. Thread-safe.
  IngestPipelineStats GetStats() const EXCLUDES(mutex_);

  const IngestPipelineOptions& options() const { return options_; }

 private:
  /// Per-video fan-out state shared by the decode task and its
  /// per-key-frame extraction tasks.
  struct VideoTask {
    uint64_t ticket = 0;
    std::string name;
    std::vector<uint8_t> video_blob;
    std::vector<KeyFrame> keys;
    /// One slot per key frame, written by exactly one extraction task.
    std::vector<Result<PreparedKeyFrame>> slots;
    /// Extraction tasks still running; the task that drops this to zero
    /// assembles the PreparedVideo and hands it to the committer.
    std::atomic<size_t> remaining{0};
  };

  void RunDecode(std::shared_ptr<VideoTask> task, IngestJob job);
  void RunExtract(const std::shared_ptr<VideoTask>& task, size_t slot);
  /// Called by whichever extraction task finishes last.
  void AssembleAndEnqueue(const std::shared_ptr<VideoTask>& task);
  /// Moves a finished (prepared or failed) video to the committer.
  void EnqueueReady(uint64_t ticket, Result<PreparedVideo> video)
      EXCLUDES(mutex_);
  void CommitterLoop() EXCLUDES(mutex_);

  // engine_, options_ and pool_ are set in the constructor and never
  // reassigned; the objects they point at synchronize themselves.
  RetrievalEngine* engine_;
  IngestPipelineOptions options_;
  std::unique_ptr<ThreadPool> pool_;

  /// Serializes the reorder buffer, the per-ticket results and every
  /// progress counter below. ready_cv_ signals "a ticket landed in
  /// ready_ or finishing_ flipped"; capacity_cv_ signals "in-flight
  /// count dropped or finishing_ flipped".
  mutable Mutex mutex_{LockLevel::kIngestPipeline, "ingest_pipeline"};
  CondVar ready_cv_;     ///< wakes the committer
  CondVar capacity_cv_;  ///< wakes blocked Submit calls
  /// Reorder buffer: prepared/failed videos keyed by ticket; the
  /// committer only consumes the contiguous prefix at next_commit_.
  std::map<uint64_t, Result<PreparedVideo>> ready_ GUARDED_BY(mutex_);
  std::vector<Result<int64_t>> results_ GUARDED_BY(mutex_);  ///< by ticket
  uint64_t submitted_ GUARDED_BY(mutex_) = 0;
  uint64_t next_commit_ GUARDED_BY(mutex_) = 0;
  uint64_t committed_ GUARDED_BY(mutex_) = 0;
  uint64_t failed_ GUARDED_BY(mutex_) = 0;
  bool finishing_ GUARDED_BY(mutex_) = false;
  bool finished_ GUARDED_BY(mutex_) = false;

  std::chrono::steady_clock::time_point start_;
  Thread committer_;
};

}  // namespace vr
