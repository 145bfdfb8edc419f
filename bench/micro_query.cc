/// \file micro_query.cc
/// \brief Query-path benchmark: bucket-pruned candidate selection and
/// sharded ranking over a synthetic corpus. Plain executable (see
/// EXPERIMENTS.md "Query latency" for the reproducible recipe); writes
/// machine-readable results to BENCH_query.json (or the path given as
/// argv[1]).
///
/// Three measurements:
///  - pruning: mean candidate count per RangeLookupMode versus the
///    full corpus (the reduction bucket lookup buys over a scan);
///  - latency: QueryByImage p50/p95 and qps at 1/2/4/8 rank shards
///    over the unpruned candidate set (use_index=false, extraction
///    cache off), so every query pays cold fused extraction and the
///    ranking stage — the part sharding accelerates — dominates;
///  - paths: the cold baseline versus the extraction-cache hit path
///    (repeated query frames) and query-by-stored-id (no extraction at
///    all), each parity-checked against the cold rankings first.
///
/// Every sharded run is asserted byte-identical to the serial
/// baseline before its numbers are reported. The `cpus` field records
/// how many cores the numbers were taken on — on a single-core
/// machine every shard count collapses to ~1x.
///
/// `--smoke` runs a seconds-scale corpus, keeps the parity assert,
/// skips the JSON; scripts/check_all.sh uses it as a regression gate.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "retrieval/engine.h"
#include "util/stopwatch.h"
#include "util/thread.h"
#include "video/synth/generator.h"

namespace {

std::vector<vr::Image> BenchVideo(int i) {
  vr::SyntheticVideoSpec spec;
  spec.category = static_cast<vr::VideoCategory>(i % vr::kNumCategories);
  spec.width = 64;
  spec.height = 48;
  spec.num_scenes = 4;
  spec.frames_per_scene = 6;
  spec.seed = 7000 + static_cast<uint64_t>(i);
  return vr::GenerateVideoFrames(spec).value();
}

vr::EngineOptions BaseOptions() {
  vr::EngineOptions options;  // all seven extractors, the honest load
  options.store_video_blob = false;
  return options;
}

/// Ingests synthetic videos until the corpus holds at least
/// \p target_key_frames key frames (or \p max_videos videos).
size_t BuildCorpus(const std::string& dir, size_t target_key_frames,
                   int max_videos) {
  vr::RemoveDirRecursive(dir);
  auto engine = vr::RetrievalEngine::Open(dir, BaseOptions()).value();
  int i = 0;
  while (engine->indexed_key_frames() < target_key_frames &&
         i < max_videos) {
    (void)engine->IngestFrames(BenchVideo(i), "bench_" + std::to_string(i))
        .value();
    ++i;
  }
  (void)engine->store()->Checkpoint();
  return engine->indexed_key_frames();
}

std::vector<vr::Image> BuildQueries(size_t count) {
  std::vector<vr::Image> queries;
  for (size_t i = 0; i < count; ++i) {
    vr::SyntheticVideoSpec spec;
    spec.category =
        static_cast<vr::VideoCategory>(i % vr::kNumCategories);
    spec.width = 64;
    spec.height = 48;
    spec.num_scenes = 1;
    spec.frames_per_scene = 2;
    spec.seed = 8000 + static_cast<uint64_t>(i);
    queries.push_back(vr::GenerateVideoFrames(spec).value()[0]);
  }
  return queries;
}

struct PruningResult {
  const char* mode = "";
  double avg_candidates = 0.0;
  size_t total = 0;
};

PruningResult MeasurePruning(const std::string& dir,
                             vr::RangeLookupMode mode, const char* name,
                             const std::vector<vr::Image>& queries) {
  vr::EngineOptions options = BaseOptions();
  options.use_index = true;
  options.lookup_mode = mode;
  auto engine = vr::RetrievalEngine::Open(dir, options).value();
  PruningResult result;
  result.mode = name;
  for (const vr::Image& q : queries) {
    (void)engine->QueryByImage(q, 10).value();
    result.avg_candidates +=
        static_cast<double>(engine->last_candidate_stats().candidates);
    result.total = engine->last_candidate_stats().total;
  }
  result.avg_candidates /= static_cast<double>(queries.size());
  return result;
}

struct LatencyResult {
  std::string label;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double qps = 0.0;
  // Per-query stage means from the engine's QueryStats deltas. The
  // total is dominated by query-feature extraction; rank_ms is the
  // stage sharding actually accelerates, so report it separately.
  double extract_ms = 0.0;
  double rank_ms = 0.0;
};

double Percentile(std::vector<double> sorted_ms, double p) {
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) / 100.0 + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

std::unique_ptr<vr::RetrievalEngine> OpenRanked(const std::string& dir,
                                                size_t shards,
                                                size_t cache_capacity) {
  vr::EngineOptions options = BaseOptions();
  options.use_index = false;  // rank the whole corpus: worst case
  options.parallel_rank_threshold = shards > 1 ? 1 : 0;
  options.rank_workers = std::max<size_t>(shards, 1);
  // The bench compares shard counts on whatever box it runs on, so it
  // must be allowed to exceed hardware_concurrency (the engine default
  // caps at the core count).
  options.rank_oversubscribe = true;
  // The shard comparison measures the cold path: extraction must run
  // on every query, so the cache is disabled unless a path measurement
  // asks for it.
  options.extraction_cache_capacity = cache_capacity;
  return vr::RetrievalEngine::Open(dir, options).value();
}

/// Dies loudly unless the sharded engine reproduces the serial
/// baseline bit for bit on every query.
void AssertParity(const std::vector<std::vector<vr::QueryResult>>& baseline,
                  vr::RetrievalEngine* engine,
                  const std::vector<vr::Image>& queries, size_t shards) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto results = engine->QueryByImage(queries[i], 20).value();
    const auto& expected = baseline[i];
    bool same = results.size() == expected.size();
    for (size_t j = 0; same && j < results.size(); ++j) {
      same = results[j].i_id == expected[j].i_id &&
             results[j].score == expected[j].score;
    }
    if (!same) {
      std::fprintf(stderr,
                   "PARITY FAILURE: shards=%zu diverges from serial on "
                   "query %zu\n",
                   shards, i);
      std::exit(1);
    }
  }
}

LatencyResult MeasureLatency(vr::RetrievalEngine* engine,
                             const std::vector<vr::Image>& queries,
                             size_t iters, const std::string& label) {
  for (const vr::Image& q : queries) (void)engine->QueryByImage(q, 20);
  std::vector<double> ms;
  ms.reserve(iters);
  const vr::QueryStats before = engine->query_stats();
  vr::Stopwatch total;
  for (size_t i = 0; i < iters; ++i) {
    vr::Stopwatch sw;
    (void)engine->QueryByImage(queries[i % queries.size()], 20).value();
    ms.push_back(sw.ElapsedMillis());
  }
  const double seconds = total.ElapsedMillis() / 1000.0;
  const vr::QueryStats after = engine->query_stats();
  LatencyResult result;
  result.label = label;
  result.p50_ms = Percentile(ms, 50);
  result.p95_ms = Percentile(ms, 95);
  result.qps = static_cast<double>(iters) / seconds;
  result.extract_ms =
      (after.extract_ms - before.extract_ms) / static_cast<double>(iters);
  result.rank_ms =
      (after.rank_ms - before.rank_ms) / static_cast<double>(iters);
  return result;
}

/// Query-by-stored-id latency: ranks against the features already in
/// the columnar matrix — no pixels, no extraction, no cache.
LatencyResult MeasureById(vr::RetrievalEngine* engine,
                          const std::vector<int64_t>& ids, size_t iters) {
  for (size_t i = 0; i < std::min<size_t>(ids.size(), 4); ++i) {
    (void)engine->QueryByStoredId(ids[i], 20);
  }
  std::vector<double> ms;
  ms.reserve(iters);
  const vr::QueryStats before = engine->query_stats();
  vr::Stopwatch total;
  for (size_t i = 0; i < iters; ++i) {
    vr::Stopwatch sw;
    (void)engine->QueryByStoredId(ids[i % ids.size()], 20).value();
    ms.push_back(sw.ElapsedMillis());
  }
  const double seconds = total.ElapsedMillis() / 1000.0;
  const vr::QueryStats after = engine->query_stats();
  LatencyResult result;
  result.label = "by_id";
  result.p50_ms = Percentile(ms, 50);
  result.p95_ms = Percentile(ms, 95);
  result.qps = static_cast<double>(iters) / seconds;
  result.extract_ms =
      (after.extract_ms - before.extract_ms) / static_cast<double>(iters);
  result.rank_ms =
      (after.rank_ms - before.rank_ms) / static_cast<double>(iters);
  return result;
}

/// Every stored key-frame id, in storage order.
std::vector<int64_t> AllKeyFrameIds(vr::RetrievalEngine* engine) {
  std::vector<int64_t> ids;
  // Hold the list in a local: ranging over value() of the temporary
  // Result would dangle once the Result is destroyed.
  const auto videos = engine->store()->ListVideos().value();
  for (const auto& video : videos) {
    const auto frame_ids =
        engine->store()->KeyFrameIdsOfVideo(video.v_id).value();
    ids.insert(ids.end(), frame_ids.begin(), frame_ids.end());
  }
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_query.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  const unsigned cpus = vr::Thread::HardwareConcurrency();
  const std::string dir = "/tmp/vretrieve_bench_query";
  const size_t target = smoke ? 32 : 512;
  const int max_videos = smoke ? 4 : 128;
  const size_t iters = smoke ? 8 : 120;

  std::printf("building corpus (target %zu key frames)...\n", target);
  const size_t key_frames = BuildCorpus(dir, target, max_videos);
  std::printf("corpus: %zu key frames\n", key_frames);
  const std::vector<vr::Image> queries = BuildQueries(smoke ? 4 : 16);

  // Serial baseline — also the parity reference for every shard count.
  std::vector<std::vector<vr::QueryResult>> baseline;
  std::vector<LatencyResult> runs;
  {
    auto engine = OpenRanked(dir, 1, /*cache_capacity=*/0);
    for (const vr::Image& q : queries) {
      baseline.push_back(engine->QueryByImage(q, 20).value());
    }
    runs.push_back(MeasureLatency(engine.get(), queries, iters, "shards=1"));
  }
  for (const size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    auto engine = OpenRanked(dir, shards, /*cache_capacity=*/0);
    AssertParity(baseline, engine.get(), queries, shards);
    runs.push_back(MeasureLatency(engine.get(), queries, iters,
                                  "shards=" + std::to_string(shards)));
    if (engine->query_stats().sharded_ranks == 0) {
      std::fprintf(stderr, "shards=%zu never sharded\n", shards);
      return 1;
    }
  }
  std::printf("parity: sharded results byte-identical to serial\n");

  // Fast paths against the cold baseline: the extraction cache serving
  // a repeated query frame, and query-by-stored-id skipping pixels
  // entirely. Both must reproduce the cold rankings exactly.
  std::vector<LatencyResult> paths;
  {
    LatencyResult cold = runs[0];
    cold.label = "cold";
    paths.push_back(cold);
    auto engine = OpenRanked(dir, 1, /*cache_capacity=*/64);
    AssertParity(baseline, engine.get(), queries, 1);
    paths.push_back(
        MeasureLatency(engine.get(), queries, iters, "cache_hit"));
    if (engine->query_stats().cache_hits == 0) {
      std::fprintf(stderr, "cache_hit run never hit the cache\n");
      return 1;
    }
    const std::vector<int64_t> ids = AllKeyFrameIds(engine.get());
    if (ids.empty()) {
      std::fprintf(stderr, "no stored key-frame ids\n");
      return 1;
    }
    paths.push_back(MeasureById(engine.get(), ids, iters));
  }

  const std::vector<PruningResult> pruning = {
      MeasurePruning(dir, vr::RangeLookupMode::kExact, "exact", queries),
      MeasurePruning(dir, vr::RangeLookupMode::kLineage, "lineage", queries),
      MeasurePruning(dir, vr::RangeLookupMode::kOverlapping, "overlapping",
                     queries),
  };

  const double base_qps = runs[0].qps;
  std::printf("\n%-10s %9s %9s %11s %8s %9s %9s   (%u cpus)\n", "config",
              "p50_ms", "p95_ms", "extract_ms", "rank_ms", "qps", "speedup",
              cpus);
  for (const LatencyResult& r : runs) {
    std::printf("%-10s %9.2f %9.2f %11.2f %8.2f %9.1f %8.2fx\n",
                r.label.c_str(), r.p50_ms, r.p95_ms, r.extract_ms, r.rank_ms,
                r.qps, r.qps / base_qps);
  }
  std::printf("\n%-10s %9s %9s %11s %8s %9s\n", "path", "p50_ms", "p95_ms",
              "extract_ms", "rank_ms", "qps");
  for (const LatencyResult& r : paths) {
    std::printf("%-10s %9.2f %9.2f %11.2f %8.2f %9.1f\n", r.label.c_str(),
                r.p50_ms, r.p95_ms, r.extract_ms, r.rank_ms, r.qps);
  }
  std::printf("\n%-12s %16s %8s %10s\n", "mode", "avg_candidates", "total",
              "scanned");
  for (const PruningResult& p : pruning) {
    std::printf("%-12s %16.1f %8zu %9.1f%%\n", p.mode, p.avg_candidates,
                p.total,
                100.0 * p.avg_candidates / static_cast<double>(p.total));
  }

  vr::RemoveDirRecursive(dir);
  if (smoke) {
    std::printf("\nmicro_query smoke: PASS\n");
    return 0;
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"benchmark\": \"query_path\",\n"
               "  \"key_frames\": %zu,\n  \"queries\": %zu,\n"
               "  \"iterations\": %zu,\n  \"cpus\": %u,\n  \"runs\": [\n",
               key_frames, queries.size(), iters, cpus);
  for (size_t i = 0; i < runs.size(); ++i) {
    const LatencyResult& r = runs[i];
    std::fprintf(json,
                 "    {\"config\": \"%s\", \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"extract_ms\": %.3f, "
                 "\"rank_ms\": %.3f, \"qps\": %.3f, \"speedup\": %.3f}%s\n",
                 r.label.c_str(), r.p50_ms, r.p95_ms, r.extract_ms, r.rank_ms,
                 r.qps, r.qps / base_qps, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"paths\": [\n");
  for (size_t i = 0; i < paths.size(); ++i) {
    const LatencyResult& r = paths[i];
    std::fprintf(json,
                 "    {\"path\": \"%s\", \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"extract_ms\": %.3f, "
                 "\"rank_ms\": %.3f, \"qps\": %.3f}%s\n",
                 r.label.c_str(), r.p50_ms, r.p95_ms, r.extract_ms, r.rank_ms,
                 r.qps, i + 1 < paths.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"pruning\": [\n");
  for (size_t i = 0; i < pruning.size(); ++i) {
    const PruningResult& p = pruning[i];
    std::fprintf(json,
                 "    {\"mode\": \"%s\", \"avg_candidates\": %.1f, "
                 "\"total\": %zu, \"scanned_fraction\": %.4f}%s\n",
                 p.mode, p.avg_candidates, p.total,
                 p.avg_candidates / static_cast<double>(p.total),
                 i + 1 < pruning.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
