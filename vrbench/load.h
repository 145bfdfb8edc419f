/// \file load.h
/// \brief Closed-loop load over loopback: VrClient connections that each
/// wait for their reply before sending the next request, plus the
/// ingest thread that streams videos through the staged ingest API.
///
/// Every call into the program is timed from here, outside src/: the
/// client round trip per request, and ExtractKeyFrames / PrepareKeyFrame
/// / EncodeVideoBlob / CommitPrepared / RemoveVideo per call.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "inputs.h"
#include "retrieval/engine.h"

namespace vrbench {

/// A reply the benchmark keeps for its correctness check or precision.
struct Kept {
  Op op;
  std::vector<vr::QueryResult> results;
};

/// One traced request: client-side span plus the counts the reply
/// carries, times relative to the phase start.
struct Span {
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool by_id = false;
  bool ok = false;
  uint64_t candidates = 0;
  uint64_t total = 0;
};

/// Query requests of one connection, by sequence number.
struct LoadPlan {
  const std::vector<QueryFrame>* pool = nullptr;
  /// The request a connection sends at a sequence number.
  std::function<Op(size_t conn, uint64_t seq)> next;
  /// Per connection, sorted sequence numbers whose replies are kept for
  /// the correctness check.
  std::vector<std::vector<uint64_t>> sample_seqs;
};

/// By-id replies below this sequence number are kept for precision.
inline constexpr uint64_t kPrecisionPrefix = 256;

/// What one connection saw during a phase.
struct ConnRecord {
  std::vector<double> latency_ms;  ///< every query RPC, OK or not
  std::vector<double> done_s;      ///< its completion, since phase start
  std::vector<bool> ok;            ///< whether it was answered OK
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Kept> sample;  ///< replies at the sampled sequence numbers
  /// First reply per pool frame, and by-id replies in the precision
  /// prefix.
  std::vector<Kept> first;
  std::vector<Span> spans;  ///< traced phases only
};

/// A video committed by the ingest thread.
struct CommittedVideo {
  int64_t v_id = 0;
  std::vector<int64_t> key_ids;
  vr::VideoCategory category = vr::VideoCategory::kMovie;
};

/// Per-call sums of the ingest thread over one phase.
struct IngestTally {
  uint64_t attempted = 0;  ///< ingest and remove calls
  uint64_t failed = 0;
  uint64_t videos = 0;
  uint64_t frames = 0;      ///< frames pushed through key-frame detection
  uint64_t key_frames = 0;  ///< key frames committed
  uint64_t removes = 0;
  double detect_ms = 0.0;   ///< ExtractKeyFrames
  double prepare_ms = 0.0;  ///< PrepareKeyFrame
  double encode_ms = 0.0;   ///< EncodeVideoBlob
  double commit_ms = 0.0;   ///< CommitPrepared, writer-lock wait included
  double remove_ms = 0.0;   ///< RemoveVideo
};

/// Ingest-thread state that carries over from one phase to the next.
struct IngestState {
  const std::vector<IngestVideo>* videos = nullptr;
  uint64_t next = 0;  ///< videos started so far; names the next one
  std::deque<CommittedVideo> live;
  std::vector<CommittedVideo> removed;
};

/// Everything measured in one timed phase.
struct PhaseRecord {
  std::vector<ConnRecord> conns;
  IngestTally ingest;
  double elapsed_s = 0.0;  ///< start to the last thread's end
};

/// Connects \p connections clients to 127.0.0.1:\p port, then drives
/// them for \p seconds, each connection continuing its sequence from
/// \p cursors[conn]. When \p ingest is set, an ingest thread streams
/// videos into \p engine beside them: after each commit it removes the
/// oldest video it ingested, so the corpus keeps its size.
vr::Result<PhaseRecord> RunPhase(uint16_t port, const LoadPlan& plan,
                                 size_t connections,
                                 std::vector<uint64_t>* cursors,
                                 vr::RetrievalEngine* engine,
                                 IngestState* ingest, double seconds,
                                 bool traced);

/// Nearest-rank percentile (\p p in [0, 100]) of \p values; 0 if empty.
double Percentile(std::vector<double> values, double p);

/// Median of \p values (mean of the middle two for an even count); 0 if
/// empty.
double Median(std::vector<double> values);

/// Client-side query figures of a phase: the requests of all
/// connections in completion order, cut into consecutive blocks of at
/// least \p block requests (one block when there are fewer than two
/// blocks' worth), each figure the median over the blocks.
struct QueryFigures {
  size_t samples = 0;
  size_t blocks = 0;
  size_t beyond_p99 = 0;  ///< samples above their block's p99, summed
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;  ///< requests answered OK per second
};
QueryFigures Summarize(const PhaseRecord& phase, size_t block);

}  // namespace vrbench
