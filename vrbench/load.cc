#include "load.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "service/client.h"
#include "util/shared_mutex.h"
#include "util/stopwatch.h"
#include "util/thread.h"

namespace vrbench {

namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void DriveConnection(vr::VrClient* client, const LoadPlan& plan, size_t conn,
                     uint64_t* cursor, Clock::time_point start,
                     Clock::time_point deadline, bool traced,
                     ConnRecord* rec) {
  const std::vector<uint64_t>& samples = plan.sample_seqs[conn];
  auto next_sample = std::lower_bound(samples.begin(), samples.end(), *cursor);
  std::vector<bool> seen(plan.pool->size(), false);
  rec->latency_ms.reserve(1 << 16);
  rec->done_s.reserve(1 << 16);
  for (uint64_t& seq = *cursor; Clock::now() < deadline; ++seq) {
    const Op op = plan.next(conn, seq);
    const Clock::time_point t0 = Clock::now();
    vr::Result<vr::ServiceResponse> reply =
        op.by_id ? client->QueryById(op.id, kTopK)
                 : client->Query((*plan.pool)[op.frame].image, kTopK);
    const Clock::time_point t1 = Clock::now();
    const bool ok = reply.ok() && reply->status.ok();
    rec->latency_ms.push_back(MillisBetween(t0, t1));
    rec->done_s.push_back(MillisBetween(start, t1) / 1e3);
    rec->ok.push_back(ok);
    ++rec->attempted;
    if (traced) {
      Span span;
      span.start_ms = MillisBetween(start, t0);
      span.end_ms = MillisBetween(start, t1);
      span.by_id = op.by_id;
      span.ok = ok;
      if (ok) {
        span.candidates = reply->stats.candidates;
        span.total = reply->stats.total;
      }
      rec->spans.push_back(span);
    }
    if (!ok) {
      ++rec->failed;
      continue;
    }
    if (next_sample != samples.end() && *next_sample == seq) {
      rec->sample.push_back({op, reply->results});
      ++next_sample;
    }
    const bool first = op.by_id ? seq < kPrecisionPrefix : !seen[op.frame];
    if (first) {
      if (!op.by_id) seen[op.frame] = true;
      rec->first.push_back({op, std::move(reply->results)});
    }
  }
}

/// Ingests one video through the staged API, timing every call.
vr::Status IngestOne(vr::RetrievalEngine* engine, const IngestVideo& video,
                     const std::string& name, IngestState* state,
                     IngestTally* tally) {
  vr::Stopwatch timer;
  VR_ASSIGN_OR_RETURN(std::vector<vr::KeyFrame> keys,
                      engine->ExtractKeyFrames(video.frames));
  tally->detect_ms += timer.ElapsedMillis();
  tally->frames += video.frames.size();

  vr::PreparedVideo prepared;
  prepared.name = name;
  for (const vr::KeyFrame& key : keys) {
    timer.Reset();
    VR_ASSIGN_OR_RETURN(vr::PreparedKeyFrame frame,
                        engine->PrepareKeyFrame(name, key));
    tally->prepare_ms += timer.ElapsedMillis();
    prepared.keys.push_back(std::move(frame));
  }
  timer.Reset();
  VR_ASSIGN_OR_RETURN(prepared.video_blob,
                      engine->EncodeVideoBlob(video.frames));
  tally->encode_ms += timer.ElapsedMillis();

  const size_t key_frames = prepared.keys.size();
  timer.Reset();
  VR_ASSIGN_OR_RETURN(int64_t v_id, engine->CommitPrepared(std::move(prepared)));
  tally->commit_ms += timer.ElapsedMillis();
  ++tally->videos;
  tally->key_frames += key_frames;

  CommittedVideo committed;
  committed.v_id = v_id;
  committed.category = video.category;
  {
    // This thread is the only writer; the shared hold keeps the store
    // read within the engine's locking contract without stalling queries.
    vr::ReaderMutexLock lock(engine->rw_lock());
    VR_ASSIGN_OR_RETURN(committed.key_ids,
                        engine->store()->KeyFrameIdsOfVideo(v_id));
  }
  state->live.push_back(std::move(committed));
  return vr::Status::OK();
}

void DriveIngest(vr::RetrievalEngine* engine, IngestState* state,
                 Clock::time_point deadline, IngestTally* tally) {
  const std::vector<IngestVideo>& videos = *state->videos;
  while (Clock::now() < deadline) {
    const IngestVideo& video = videos[state->next % videos.size()];
    const std::string name = "bench_" + std::to_string(state->next++);
    ++tally->attempted;
    if (!IngestOne(engine, video, name, state, tally).ok()) ++tally->failed;
    if (state->live.size() < 2) continue;
    CommittedVideo oldest = std::move(state->live.front());
    state->live.pop_front();
    ++tally->attempted;
    vr::Stopwatch timer;
    const vr::Status removed = engine->RemoveVideo(oldest.v_id);
    tally->remove_ms += timer.ElapsedMillis();
    if (!removed.ok()) {
      ++tally->failed;
      continue;
    }
    ++tally->removes;
    state->removed.push_back(std::move(oldest));
  }
}

}  // namespace

vr::Result<PhaseRecord> RunPhase(uint16_t port, const LoadPlan& plan,
                                 size_t connections,
                                 std::vector<uint64_t>* cursors,
                                 vr::RetrievalEngine* engine,
                                 IngestState* ingest, double seconds,
                                 bool traced) {
  std::vector<std::unique_ptr<vr::VrClient>> clients;
  for (size_t c = 0; c < connections; ++c) {
    VR_ASSIGN_OR_RETURN(auto client, vr::VrClient::Connect("127.0.0.1", port));
    clients.push_back(std::move(client));
  }
  PhaseRecord phase;
  phase.conns.resize(connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<vr::Thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(DriveConnection, clients[c].get(), std::cref(plan), c,
                         &(*cursors)[c], start, deadline, traced,
                         &phase.conns[c]);
  }
  if (ingest != nullptr) {
    threads.emplace_back(DriveIngest, engine, ingest, deadline, &phase.ingest);
  }
  for (vr::Thread& t : threads) t.join();
  phase.elapsed_s = MillisBetween(start, Clock::now()) / 1e3;
  return phase;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

QueryFigures Summarize(const PhaseRecord& phase, size_t block) {
  struct Sample {
    double done_s, ms;
    bool ok;
  };
  std::vector<Sample> all;
  for (const ConnRecord& conn : phase.conns) {
    for (size_t i = 0; i < conn.latency_ms.size(); ++i) {
      all.push_back({conn.done_s[i], conn.latency_ms[i], conn.ok[i]});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.done_s < b.done_s; });
  QueryFigures out;
  out.samples = all.size();
  out.blocks = std::max<size_t>(1, all.size() / block);
  std::vector<double> p50s, p99s, rates;
  double block_start_s = 0.0;
  for (size_t b = 0; b < out.blocks; ++b) {
    const size_t begin = b * all.size() / out.blocks;
    const size_t end = (b + 1) * all.size() / out.blocks;
    std::vector<double> ms;
    size_t answered = 0;
    for (size_t i = begin; i < end; ++i) {
      ms.push_back(all[i].ms);
      answered += all[i].ok ? 1 : 0;
    }
    const double p99 = Percentile(ms, 99);
    out.beyond_p99 += static_cast<size_t>(
        std::count_if(ms.begin(), ms.end(), [p99](double v) { return v > p99; }));
    p50s.push_back(Percentile(ms, 50));
    p99s.push_back(p99);
    const double block_end_s = end > begin ? all[end - 1].done_s : block_start_s;
    if (block_end_s > block_start_s) {
      rates.push_back(static_cast<double>(answered) /
                      (block_end_s - block_start_s));
    }
    block_start_s = block_end_s;
  }
  out.p50_ms = Median(p50s);
  out.p99_ms = Median(p99s);
  out.qps = Median(rates);
  return out;
}

}  // namespace vrbench
