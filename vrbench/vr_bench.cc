/// \file vr_bench.cc
/// \brief vr_bench: the end-to-end benchmark of vretrieve.
///
/// One process runs one workload. It builds the workload's store,
/// starts a VrServer on 127.0.0.1 over a RetrievalService over a
/// RetrievalEngine — all on their default option structs — and drives
/// it through VrClient connections, each waiting for its reply before
/// sending the next request (closed loop). See NOTES.md for the
/// workloads, the metrics and which layer metric should move which
/// end-to-end metric.
///
///   vr_bench --workload image_cold|id_warm|ingest_mixed --seed N
///            --seconds S --trace 0|1 --workdir DIR [--spans FILE]
///
/// --trace 0 measures the end-to-end metrics for S seconds. --trace 1
/// measures S/2 seconds the same way, restarts the service and server
/// on the same engine, and measures S/2 seconds traced: per-request
/// spans from the client, counter deltas of engine, pager, matrix store
/// and service, and timed calls into the codecs and the extraction plan.
/// Both modes check the replies and print, as the last line, one JSON
/// object {correct, attempted, failed, metrics}. The exit code is 0
/// when every check passed, 1 when a check failed, 2 on bad usage and 3
/// when the run could not be set up or driven.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "features/extractor_registry.h"
#include "features/plan/extraction_plan.h"
#include "inputs.h"
#include "load.h"
#include "retrieval/ingest_pipeline.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread.h"

namespace vrbench {
namespace {

constexpr size_t kConnections = 2;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 7;
/// Key frames of the id_warm store.
constexpr size_t kIdWarmRows = 3000;
/// Distinct videos the ingest thread cycles through.
constexpr size_t kIngestVideos = 8;
/// Replies per connection checked against the in-process engine, drawn
/// from its first kSampleWindow requests.
constexpr size_t kSamplesPerConnection = 12;
constexpr uint64_t kSampleWindow = 160;
constexpr size_t kScheduleLength = 1 << 16;
/// Requests per block of the client latency figures (see Summarize):
/// every block has at least ten samples beyond its p99.
constexpr size_t kBlock = 1000;
/// Idle GetStats round trips that give the transport floor.
constexpr size_t kFloorCalls = 200;
/// The paper's seven extractors, the default enabled set.
constexpr vr::FeatureKind kPaperKinds[] = {
    vr::FeatureKind::kColorHistogram,  vr::FeatureKind::kGlcm,
    vr::FeatureKind::kGabor,           vr::FeatureKind::kTamura,
    vr::FeatureKind::kAutoCorrelogram, vr::FeatureKind::kNaiveSignature,
    vr::FeatureKind::kRegionGrowing,
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::string spans;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Engine, service and server; members are destroyed server first.
struct Stack {
  std::unique_ptr<vr::RetrievalEngine> engine;
  std::unique_ptr<vr::RetrievalService> service;
  std::unique_ptr<vr::VrServer> server;
};

void TearDown(Stack* stack) {
  stack->server.reset();
  stack->service.reset();
  stack->engine.reset();
}

[[noreturn]] void Die(const std::string& what, const vr::Status& status) {
  std::fprintf(stderr, "vr_bench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

template <typename T>
T Check(vr::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = args->seconds > 0.0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  const bool known = args->workload == "image_cold" ||
                     args->workload == "id_warm" ||
                     args->workload == "ingest_mixed";
  return argc % 2 == 1 && known && have_seed && have_seconds && have_trace &&
         !args->workdir.empty();
}

const char* NormalizationName(vr::NormalizationKind kind) {
  switch (kind) {
    case vr::NormalizationKind::kMinMax: return "minmax";
    case vr::NormalizationKind::kGaussian: return "gaussian";
    case vr::NormalizationKind::kRank: return "rank";
    case vr::NormalizationKind::kNone: return "none";
  }
  return "?";
}

/// The default-options guard: the fields this benchmark relies on, as
/// the option structs' defaults set them in this build.
void PrintDefaults() {
  const vr::EngineOptions engine;
  const vr::ServiceOptions service;
  const vr::ServerOptions server;
  const vr::ClientOptions client;
  const vr::IngestPipelineOptions pipeline;
  const size_t rank_workers = engine.rank_workers != 0
                                  ? engine.rank_workers
                                  : vr::Thread::HardwareConcurrency();
  std::printf(
      "defaults: engine normalization=%s use_index=%d lookup_mode=%d "
      "two_stage=%d two_stage_min_candidates=%zu extraction_cache_capacity=%zu "
      "persist_matrix=%d rank_workers=%zu(resolved %zu) "
      "parallel_rank_threshold=%zu store_video_blob=%d enabled_features=%zu\n",
      NormalizationName(engine.normalization), engine.use_index,
      static_cast<int>(engine.lookup_mode), engine.two_stage,
      engine.two_stage_min_candidates, engine.extraction_cache_capacity,
      engine.persist_matrix, engine.rank_workers, rank_workers,
      engine.parallel_rank_threshold, engine.store_video_blob,
      engine.enabled_features.size());
  std::printf(
      "defaults: service num_workers=%zu max_backlog=%zu "
      "default_deadline_ms=%" PRIu64 "; server max_connections=%zu "
      "read_deadline_ms=%" PRIu64 "; client rpc_timeout_ms=%" PRIu64
      " retry.max_attempts=%d; ingest_pipeline workers=%zu\n",
      service.num_workers, service.max_backlog, service.default_deadline_ms,
      server.max_connections, server.read_deadline_ms, client.rpc_timeout_ms,
      client.retry.max_attempts, pipeline.workers);
}

vr::Result<Stack> StartStack(const std::string& dir, double* open_s) {
  Stack stack;
  vr::Stopwatch timer;
  VR_ASSIGN_OR_RETURN(stack.engine, vr::RetrievalEngine::Open(dir));
  *open_s = timer.ElapsedSeconds();
  stack.service = std::make_unique<vr::RetrievalService>(stack.engine.get());
  VR_ASSIGN_OR_RETURN(stack.server, vr::VrServer::Start(stack.service.get()));
  return stack;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Ids, v_ids and score bits equal, in order.
bool SameReply(const std::vector<vr::QueryResult>& a,
               const std::vector<vr::QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].i_id != b[i].i_id || a[i].v_id != b[i].v_id ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

/// Remote replies against in-process engine calls on the same state.
/// Returns the number of mismatches; \p references receives the
/// in-process replies.
size_t CheckReplies(vr::RetrievalEngine* engine,
                    const std::vector<QueryFrame>& pool,
                    const std::vector<const Kept*>& sample,
                    std::vector<std::vector<vr::QueryResult>>* references) {
  size_t mismatches = 0;
  for (const Kept* kept : sample) {
    vr::Result<std::vector<vr::QueryResult>> local =
        kept->op.by_id ? engine->QueryByStoredId(kept->op.id, kTopK)
                       : engine->QueryByImage(pool[kept->op.frame].image, kTopK);
    references->push_back(local.ok() ? std::move(local).value()
                                     : std::vector<vr::QueryResult>{});
    if (!local.ok() || !SameReply(kept->results, references->back())) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// After an ingest_mixed run: every key frame of a live video answers
/// QueryById and every key frame of a removed video is NotFound.
/// Returns the number of key frames that do not.
size_t CheckIngested(vr::VrClient* client,
                     const std::vector<CommittedVideo>& live,
                     const std::vector<CommittedVideo>& removed) {
  size_t mismatches = 0;
  for (const CommittedVideo& video : live) {
    for (int64_t id : video.key_ids) {
      auto reply = client->QueryById(id, kTopK);
      if (!reply.ok() || !reply->status.ok() || reply->results.empty()) {
        ++mismatches;
      }
    }
  }
  for (const CommittedVideo& video : removed) {
    for (int64_t id : video.key_ids) {
      auto reply = client->QueryById(id, kTopK);
      if (!reply.ok() || !reply->status.IsNotFound()) ++mismatches;
    }
  }
  return mismatches;
}

std::vector<int64_t> VideoIds(const std::vector<vr::QueryResult>& results) {
  std::vector<int64_t> ids;
  for (const vr::QueryResult& r : results) ids.push_back(r.v_id);
  return ids;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Engine-side counters whose deltas over a phase feed the layer metrics.
struct Counters {
  vr::QueryStats query;
  vr::PagerStats pager;
  vr::MatrixStore::Stats matrix;
};

Counters Snapshot(vr::RetrievalEngine* engine) {
  return {engine->query_stats(), engine->store()->GetPagerStats(),
          engine->matrix_store_stats()};
}

/// Mean codec cost and payload size per request of the workload's mix.
struct WireCost {
  double request_bytes = 0, response_bytes = 0, encode_us = 0, decode_us = 0;
};

WireCost MeasureWire(const std::vector<QueryFrame>& pool,
                     const std::vector<const Kept*>& sample) {
  constexpr int kReps = 20;
  WireCost cost;
  for (const Kept* kept : sample) {
    vr::ServiceRequest request;
    request.k = kTopK;
    request.request_id = 1;
    if (kept->op.by_id) {
      request.mode = vr::QueryMode::kById;
      request.frame_id = kept->op.id;
    } else {
      request.image = pool[kept->op.frame].image;
    }
    vr::ServiceResponse response;
    response.results = kept->results;
    response.request_id = 1;
    vr::Stopwatch timer;
    std::vector<uint8_t> req_bytes, resp_bytes;
    for (int r = 0; r < kReps; ++r) {
      req_bytes = vr::EncodeQueryRequest(request);
      resp_bytes = vr::EncodeQueryResponse(response);
    }
    cost.encode_us += timer.ElapsedMicros() / kReps;
    timer.Reset();
    for (int r = 0; r < kReps; ++r) {
      if (!vr::DecodeQueryRequest(req_bytes).ok() ||
          !vr::DecodeQueryResponse(resp_bytes).ok()) {
        Die("wire decode", vr::Status::Corruption("own payload rejected"));
      }
    }
    cost.decode_us += timer.ElapsedMicros() / kReps;
    cost.request_bytes += static_cast<double>(req_bytes.size());
    cost.response_bytes += static_cast<double>(resp_bytes.size());
  }
  const double n = static_cast<double>(std::max<size_t>(1, sample.size()));
  cost.request_bytes /= n;
  cost.response_bytes /= n;
  cost.encode_us /= n;
  cost.decode_us /= n;
  return cost;
}

/// Per-frame ms of each paper extractor and of the shared intermediates,
/// from ExtractionPlan::ExtractAll on the workload's frames.
std::vector<Metric> MeasurePlan(const std::vector<QueryFrame>& pool) {
  const vr::EngineOptions defaults;
  std::vector<std::unique_ptr<vr::FeatureExtractor>> owned;
  std::vector<const vr::FeatureExtractor*> extractors;
  for (vr::FeatureKind kind : defaults.enabled_features) {
    owned.push_back(vr::MakeExtractor(kind));
    extractors.push_back(owned.back().get());
  }
  vr::ExtractionPlan plan(extractors);
  const size_t frames = std::min<size_t>(16, pool.size());
  (void)plan.ExtractAll(pool[0].image);  // scratch warm-up
  std::array<double, vr::kNumFeatureKinds> kind_ms{};
  double intermediates_ms = 0.0;
  for (size_t f = 0; f < frames; ++f) {
    vr::ExtractionPlan::FrameTimings timings;
    if (!plan.ExtractAll(pool[f].image, &timings).ok()) {
      Die("plan", vr::Status::Internal("ExtractAll failed"));
    }
    for (size_t k = 0; k < kind_ms.size(); ++k) {
      kind_ms[k] += static_cast<double>(timings.extractor_ns[k]) / 1e6;
    }
    for (uint64_t ns : timings.intermediate_ns) {
      intermediates_ms += static_cast<double>(ns) / 1e6;
    }
  }
  std::vector<Metric> out;
  for (vr::FeatureKind kind : kPaperKinds) {
    out.push_back({std::string("plan.") + vr::FeatureKindName(kind) + "_ms",
                   kind_ms[static_cast<size_t>(kind)] / frames, "ms"});
  }
  out.push_back({"plan.intermediates_ms", intermediates_ms / frames, "ms"});
  return out;
}

void WriteSpans(const std::string& path, const std::vector<ConnRecord>& conns) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (size_t c = 0; c < conns.size(); ++c) {
    for (const Span& s : conns[c].spans) {
      std::fprintf(out,
                   "{\"conn\": %zu, \"layer\": \"client\", \"op\": \"%s\", "
                   "\"start_ms\": %.4f, \"end_ms\": %.4f, \"ok\": %d, "
                   "\"candidates\": %" PRIu64 ", \"total\": %" PRIu64 "}\n",
                   c, s.by_id ? "by_id" : "image", s.start_ms, s.end_ms, s.ok,
                   s.candidates, s.total);
    }
  }
  std::fclose(out);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The store a run serves, built before any timer starts.
struct Store {
  CorpusBuild corpus;
  std::vector<int64_t> ids;  ///< every stored key frame (id_warm only)
};

Store BuildStore(const Args& args, const std::string& dir, bool clone) {
  Store store;
  store.corpus = Check(IngestTableOneCorpus(dir, args.workdir + "/videos"),
                       "corpus ingest");
  vr::Stopwatch timer;
  if (clone) {
    const vr::Status cloned =
        CloneRows(dir, kIdWarmRows, args.seed, &store.corpus.truth);
    if (!cloned.ok()) Die("clone", cloned);
    for (const auto& [id, v_id] : store.corpus.truth.frame_video) {
      store.ids.push_back(id);
    }
    // The first open after cloning rebuilds and persists matrix.vrm, so
    // every timed set-up is a warm open.
    (void)Check(vr::RetrievalEngine::Open(dir), "cold open");
  }
  std::printf("store: corpus of %zu key frames ingested in %.3f s; clone "
              "and cold open %.3f s; %zu key frames\n",
              store.corpus.key_frames, store.corpus.ingest_s,
              timer.ElapsedSeconds(),
              clone ? store.ids.size() : store.corpus.key_frames);
  return store;
}

/// What the load connections send, and the state behind it.
struct Load {
  std::atomic<uint64_t> cold_cursor{0};
  std::vector<std::vector<Op>> schedules;
  LoadPlan plan;
};

/// image_cold and ingest_mixed cycle the pool in order through one
/// cursor shared by the connections; id_warm gives each connection its
/// own seeded mix of by-id and hot-pool requests.
void MakeLoad(const Args& args, const std::vector<QueryFrame>& pool,
              const std::vector<int64_t>& ids, Load* load) {
  LoadPlan& plan = load->plan;
  plan.pool = &pool;
  const size_t pool_size = pool.size();
  if (ids.empty()) {
    plan.next = [load, pool_size](size_t, uint64_t) {
      Op op;
      op.frame = static_cast<uint32_t>(load->cold_cursor++ % pool_size);
      return op;
    };
  } else {
    for (size_t c = 0; c < kConnections; ++c) {
      load->schedules.push_back(MakeMixedSchedule(kScheduleLength, ids,
                                                  pool_size, args.seed * 31 + c));
    }
    plan.next = [load](size_t conn, uint64_t seq) {
      return load->schedules[conn][seq % kScheduleLength];
    };
  }
  vr::Rng rng(args.seed ^ 0x5A3B1EULL);
  for (size_t c = 0; c < kConnections; ++c) {
    std::vector<uint64_t> seqs;
    while (seqs.size() < kSamplesPerConnection) {
      const auto seq = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(kSampleWindow) - 1));
      if (std::find(seqs.begin(), seqs.end(), seq) == seqs.end()) {
        seqs.push_back(seq);
      }
    }
    std::sort(seqs.begin(), seqs.end());
    plan.sample_seqs.push_back(std::move(seqs));
  }
}

/// Operation counts and kept replies over all phases of a run.
struct Replies {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<const Kept*> sample;
  std::vector<const Kept*> first_by_frame;  ///< indexed by pool frame
  std::vector<const Kept*> by_id;
};

Replies Gather(const std::vector<PhaseRecord>& phases, size_t pool_size) {
  Replies out;
  out.first_by_frame.assign(pool_size, nullptr);
  for (const PhaseRecord& phase : phases) {
    out.attempted += phase.ingest.attempted;
    out.failed += phase.ingest.failed;
    for (const ConnRecord& conn : phase.conns) {
      out.attempted += conn.attempted;
      out.failed += conn.failed;
      for (const Kept& k : conn.sample) out.sample.push_back(&k);
      for (const Kept& k : conn.first) {
        if (k.op.by_id) {
          out.by_id.push_back(&k);
        } else if (out.first_by_frame[k.op.frame] == nullptr) {
          out.first_by_frame[k.op.frame] = &k;
        }
      }
    }
  }
  return out;
}

/// Runs the workload's correctness check and its must-fail probe.
bool CheckRun(const Stack& stack, const std::vector<QueryFrame>& pool,
              const Replies& replies, const IngestState* ingest) {
  size_t checked = 0, mismatches = 0;
  bool probe_fired = false;
  if (ingest != nullptr) {
    auto client = Check(
        vr::VrClient::Connect("127.0.0.1", stack.server->port()), "check");
    const std::vector<CommittedVideo> live(ingest->live.begin(),
                                          ingest->live.end());
    mismatches = CheckIngested(client.get(), live, ingest->removed);
    for (const auto& v : live) checked += v.key_ids.size();
    for (const auto& v : ingest->removed) checked += v.key_ids.size();
    // Probe: claim a removed video is still live.
    if (!ingest->removed.empty()) {
      std::vector<CommittedVideo> perturbed = live;
      perturbed.push_back(ingest->removed.front());
      probe_fired = CheckIngested(client.get(), perturbed, {}) > 0;
    }
    std::printf("check: %zu key frames of committed and removed videos",
                checked);
  } else {
    std::vector<std::vector<vr::QueryResult>> references;
    mismatches =
        CheckReplies(stack.engine.get(), pool, replies.sample, &references);
    checked = replies.sample.size();
    // Probe: a reference with one score bit flipped, and one with its
    // top two ids swapped, must both be told apart.
    if (!references.empty() && references[0].size() >= 2) {
      std::vector<vr::QueryResult> flipped = references[0];
      flipped[0].score = std::bit_cast<double>(
          std::bit_cast<uint64_t>(flipped[0].score) ^ 1u);
      std::vector<vr::QueryResult> swapped = references[0];
      std::swap(swapped[0].i_id, swapped[1].i_id);
      probe_fired = !SameReply(replies.sample[0]->results, flipped) &&
                    !SameReply(replies.sample[0]->results, swapped);
    }
    std::printf("check: %zu sampled replies vs the in-process engine",
                checked);
  }
  std::printf(", %zu mismatches; probe %s\n", mismatches,
              probe_fired ? "fired" : "DID NOT FIRE");
  return mismatches == 0 && probe_fired && checked > 0;
}

/// Mean P@20 over the first reply to each distinct query.
double Precision(const GroundTruth& truth, const std::vector<QueryFrame>& pool,
                 const Replies& replies) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t f = 0; f < pool.size(); ++f) {
    if (const Kept* k = replies.first_by_frame[f]) {
      sum += truth.PrecisionAt20(VideoIds(k->results), pool[f].category);
      ++n;
    }
  }
  for (const Kept* k : replies.by_id) {
    sum += truth.PrecisionAt20(
        VideoIds(k->results),
        truth.video_category.at(truth.frame_video.at(k->op.id)));
    ++n;
  }
  std::printf("precision: %zu queries (%zu pool frames unanswered)\n", n,
              pool.size() - (n - replies.by_id.size()));
  return Ratio(sum, static_cast<double>(n));
}

/// p50 of idle GetStats round trips: socket, handler and codec with no
/// queue or engine work behind them.
double TransportFloorMs(uint16_t port) {
  auto client = Check(vr::VrClient::Connect("127.0.0.1", port), "floor");
  std::vector<double> ms;
  for (size_t i = 0; i < kFloorCalls; ++i) {
    vr::Stopwatch timer;
    if (!client->GetStats().ok()) {
      Die("floor", vr::Status::IOError("GetStats failed"));
    }
    ms.push_back(timer.ElapsedMillis());
  }
  return Percentile(ms, 50);
}

/// What the traced phase measured beside the client spans.
struct Traced {
  Counters before;
  Counters after;
  vr::ServiceStatsSnapshot service;
  double open_s = 0.0;    ///< median engine Open of the set-ups
  double untraced_p50_ms = 0.0;
};

std::vector<Metric> LayerMetrics(const Traced& traced, const PhaseRecord& phase,
                                 const Stack& stack,
                                 const std::vector<QueryFrame>& pool,
                                 const Replies& replies,
                                 const std::string& dir) {
  const vr::QueryStats& qa = traced.after.query;
  const vr::QueryStats& qb = traced.before.query;
  const vr::PagerStats& pa = traced.after.pager;
  const vr::PagerStats& pb = traced.before.pager;
  const vr::MatrixStore::Stats& ma = traced.after.matrix;
  const vr::MatrixStore::Stats& mb = traced.before.matrix;
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  const double queries = delta(qa.image_queries + qa.id_queries,
                               qb.image_queries + qb.id_queries);
  const double extract_ms = Ratio(qa.extract_ms - qb.extract_ms, queries);
  const double select_ms = Ratio(qa.select_ms - qb.select_ms, queries);
  const double rank_ms = Ratio(qa.rank_ms - qb.rank_ms, queries);
  const double scored = delta(qa.candidates_scored, qb.candidates_scored);
  const double hits = delta(qa.cache_hits, qb.cache_hits);
  const double misses = delta(qa.cache_misses, qb.cache_misses);

  const double rtt_p50 = Summarize(phase, kBlock).p50_ms;
  const double svc_p50 = traced.service.p50_ms;
  const WireCost wire = MeasureWire(pool, replies.sample);
  const double transport_self =
      rtt_p50 - svc_p50 - (wire.encode_us + wire.decode_us) / 1e3;
  const double floor_ms = TransportFloorMs(stack.server->port());
  const IngestTally& t = phase.ingest;
  const double videos = static_cast<double>(t.videos);
  const double key_frames = static_cast<double>(t.key_frames);

  std::vector<Metric> out = {
      {"wire.request_bytes", wire.request_bytes, "B"},
      {"wire.response_bytes", wire.response_bytes, "B"},
      {"wire.encode_us", wire.encode_us, "us"},
      {"wire.decode_us", wire.decode_us, "us"},
      {"transport.self_ms", transport_self, "ms"},
      {"transport.floor_ms", floor_ms, "ms"},
      {"service.latency_p50_ms", svc_p50, "ms"},
      {"service.latency_p99_ms", traced.service.p99_ms, "ms"},
      {"service.wait_ms", svc_p50 - (extract_ms + select_ms + rank_ms), "ms"},
      {"service.rejected", static_cast<double>(traced.service.rejected),
       "count"},
      {"service.expired", static_cast<double>(traced.service.expired), "count"},
      {"engine.extract_ms", extract_ms, "ms"},
      {"engine.select_ms", select_ms, "ms"},
      {"engine.rank_ms", rank_ms, "ms"},
  };
  for (Metric& m : MeasurePlan(pool)) out.push_back(std::move(m));
  const std::vector<Metric> rest = {
      {"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"index.scanned_fraction",
       Ratio(scored, delta(qa.candidates_total, qb.candidates_total)), "ratio"},
      {"index.candidates_per_query", Ratio(scored, queries), "count"},
      {"rank.two_stage_share",
       Ratio(delta(qa.two_stage_queries, qb.two_stage_queries), queries),
       "ratio"},
      {"rank.fallbacks", delta(qa.two_stage_fallbacks, qb.two_stage_fallbacks),
       "count"},
      {"rank.survivor_ratio",
       Ratio(delta(qa.coarse_candidates, qb.coarse_candidates), scored),
       "ratio"},
      {"rank.margin_kept", delta(qa.margin_kept, qb.margin_kept), "count"},
      {"keyframe.detect_ms_per_video", Ratio(t.detect_ms, videos), "ms"},
      {"keyframe.kept_ratio",
       Ratio(key_frames, static_cast<double>(t.frames)), "ratio"},
      {"ingest.prepare_ms_per_kf", Ratio(t.prepare_ms, key_frames), "ms"},
      {"ingest.encode_ms_per_video", Ratio(t.encode_ms, videos), "ms"},
      {"storage.commit_ms_per_video", Ratio(t.commit_ms, videos), "ms"},
      {"storage.remove_ms_per_video",
       Ratio(t.remove_ms, static_cast<double>(t.removes)), "ms"},
      {"storage.pager_hit_ratio",
       Ratio(delta(pa.hits, pb.hits), delta(pa.fetches, pb.fetches)), "ratio"},
      {"storage.pager_evictions", delta(pa.evictions, pb.evictions), "count"},
      {"storage.db_bytes_per_kf",
       Ratio(static_cast<double>(DirBytes(dir)),
             static_cast<double>(stack.engine->indexed_key_frames())),
       "B"},
      {"matrix_store.appends", delta(ma.appends, mb.appends), "count"},
      {"matrix_store.tombstones",
       static_cast<double>(ma.tombstones) - static_cast<double>(mb.tombstones),
       "count"},
      {"matrix_store.rewrites", delta(ma.rewrites, mb.rewrites), "count"},
      {"setup.open_s", traced.open_s, "s"},
      {"trace.unaccounted_ms", transport_self - floor_ms, "ms"},
      {"trace.overhead_ms", rtt_p50 - traced.untraced_p50_ms, "ms"},
      {"trace.query_p50_ms", rtt_p50, "ms"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

int Run(const Args& args) {
  const bool cold_pool = args.workload != "id_warm";
  const bool ingest = args.workload == "ingest_mixed";
  PrintDefaults();

  // Inputs and store, before any timer.
  vr::RemoveDirRecursive(args.workdir);
  std::filesystem::create_directories(args.workdir);
  const std::string dir = args.workdir + "/db";
  // image_cold's pool is 4x the cache, so cycling it in order never
  // hits; id_warm's hot pool is half the cache, so every query hits.
  const size_t cache_capacity = vr::EngineOptions{}.extraction_cache_capacity;
  const size_t pool_size = cold_pool ? std::max<size_t>(4, 4 * cache_capacity)
                                     : std::max<size_t>(1, cache_capacity / 2);
  const std::vector<QueryFrame> pool = MakeQueryPool(pool_size, args.seed);
  std::vector<IngestVideo> videos;
  if (ingest) videos = MakeIngestVideos(kIngestVideos, args.seed);
  Store store = BuildStore(args, dir, !cold_pool);
  GroundTruth& truth = store.corpus.truth;
  Load load;
  MakeLoad(args, pool, store.ids, &load);

  // Set-up, timed kSetups times: engine open, service, server start.
  std::vector<double> setup_s, open_s;
  Stack stack;
  for (size_t r = 0; r < kSetups; ++r) {
    TearDown(&stack);  // the previous set-up, untimed
    vr::Stopwatch timer;
    double opened = 0.0;
    stack = Check(StartStack(dir, &opened), "set-up");
    setup_s.push_back(timer.ElapsedSeconds());
    open_s.push_back(opened);
  }
  vr::RetrievalEngine* engine = stack.engine.get();

  // Warm-up: id_warm fills the extraction cache with its hot pool;
  // the cold pools warm the connection path on their last two frames,
  // which 250+ other frames evict before the cycle comes back to them.
  {
    auto client = Check(
        vr::VrClient::Connect("127.0.0.1", stack.server->port()), "warm-up");
    for (size_t f = cold_pool ? pool_size - 2 : 0; f < pool_size; ++f) {
      auto reply = client->Query(pool[f].image, kTopK);
      if (!reply.ok() || !reply->status.ok()) {
        Die("warm-up", reply.ok() ? reply->status : reply.status());
      }
    }
  }

  IngestState ingest_state;
  ingest_state.videos = &videos;
  IngestState* ingest_ptr = ingest ? &ingest_state : nullptr;
  std::vector<uint64_t> cursors(kConnections, 0);
  const vr::ServiceStatsSnapshot warmed = stack.service->GetStats();
  std::vector<PhaseRecord> phases;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  phases.push_back(Check(RunPhase(stack.server->port(), load.plan,
                                  kConnections, &cursors, engine, ingest_ptr,
                                  phase_s, false),
                         "timed phase"));
  const vr::ServiceStatsSnapshot served = stack.service->GetStats();
  Traced traced;
  if (args.trace) {
    // A fresh service and server, so the latency histogram covers the
    // traced phase alone.
    stack.server.reset();
    stack.service = std::make_unique<vr::RetrievalService>(engine);
    stack.server = Check(vr::VrServer::Start(stack.service.get()), "restart");
    traced.before = Snapshot(engine);
    phases.push_back(Check(RunPhase(stack.server->port(), load.plan,
                                    kConnections, &cursors, engine, ingest_ptr,
                                    phase_s, true),
                           "traced phase"));
    traced.after = Snapshot(engine);
    traced.service = stack.service->GetStats();
  }

  const Replies replies = Gather(phases, pool_size);
  const bool correct = CheckRun(stack, pool, replies, ingest_ptr);
  // Replies may rank the videos the ingest thread added.
  for (const CommittedVideo& v : ingest_state.removed) {
    truth.video_category[v.v_id] = v.category;
  }
  for (const CommittedVideo& v : ingest_state.live) {
    truth.video_category[v.v_id] = v.category;
  }
  const double precision = Precision(truth, pool, replies);
  const QueryFigures figures = Summarize(phases.front(), kBlock);
  const double error_rate = Ratio(static_cast<double>(replies.failed),
                                  static_cast<double>(replies.attempted));
  std::printf("query samples: %zu in %zu blocks (%zu beyond their block's "
              "p99)\n",
              figures.samples, figures.blocks, figures.beyond_p99);
  std::printf("service: received=%" PRIu64 " served=%" PRIu64
              " rejected=%" PRIu64 " expired=%" PRIu64 " failed=%" PRIu64
              " (after warm-up); error_rate=%.6f over %" PRIu64
              " operations\n",
              served.received - warmed.received, served.served - warmed.served,
              served.rejected - warmed.rejected, served.expired - warmed.expired,
              served.failed - warmed.failed, error_rate, replies.attempted);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const PhaseRecord& phase = phases.front();
    const double ingest_rate =
        ingest ? Ratio(static_cast<double>(phase.ingest.key_frames),
                       phase.elapsed_s)
               : Ratio(static_cast<double>(store.corpus.key_frames),
                       store.corpus.ingest_s);
    metrics = {
        {"query_p50_ms", figures.p50_ms, "ms"},
        {"query_p99_ms", figures.p99_ms, "ms"},
        {"query_qps", figures.qps, "1/s"},
        {"ingest_kf_per_s", ingest_rate, "1/s"},
        {"success_rate", 1.0 - error_rate, "ratio"},
        {"precision_at_20", precision, "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    traced.open_s = Median(open_s);
    traced.untraced_p50_ms = figures.p50_ms;
    metrics =
        LayerMetrics(traced, phases.back(), stack, pool, replies, dir);
    if (!args.spans.empty()) WriteSpans(args.spans, phases.back().conns);
  }

  TearDown(&stack);
  vr::RemoveDirRecursive(args.workdir);
  PrintResult(correct, replies.attempted, replies.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vrbench

int main(int argc, char** argv) {
  vrbench::Args args;
  if (!vrbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vr_bench --workload image_cold|id_warm|ingest_mixed "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--spans FILE]\n");
    return 2;
  }
  return vrbench::Run(args);
}
