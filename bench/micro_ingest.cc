/// \file micro_ingest.cc
/// \brief Bulk-ingest benchmark: serial IngestFrames loop versus the
/// staged IngestPipeline at 1/2/4/8 workers over the same synthetic
/// corpus. Plain executable (see EXPERIMENTS.md "Bulk ingest" for the
/// reproducible recipe); writes machine-readable results to
/// BENCH_ingest.json (or the path given as argv[1]).
///
/// One untimed warm-up pass over every config comes first: on a shared
/// host a run started after an idle spell otherwise spends its first
/// seconds as if on one core. Then kTimedPasses passes time every
/// config in turn, and each config records its median pass.
///
/// Ingest is CPU-bound (Gabor + correlogram extraction dominates; the
/// batched commit amortizes journal fsyncs), so videos/sec should
/// scale with workers up to the physical core count. The `cpus` field
/// in the JSON records how many cores the numbers were taken on —
/// on a single-core machine every worker count collapses to ~1x.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "retrieval/engine.h"
#include "retrieval/ingest_pipeline.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread.h"
#include "video/synth/generator.h"

namespace {

constexpr int kVideos = 8;
constexpr int kTimedPasses = 3;
constexpr size_t kWorkerCounts[] = {1, 2, 4, 8};

std::vector<std::vector<vr::Image>> BuildCorpus() {
  std::vector<std::vector<vr::Image>> corpus;
  for (int i = 0; i < kVideos; ++i) {
    vr::SyntheticVideoSpec spec;
    spec.category =
        static_cast<vr::VideoCategory>(i % vr::kNumCategories);
    spec.width = 96;
    spec.height = 72;
    spec.num_scenes = 2;
    spec.frames_per_scene = 8;
    spec.seed = 9000 + static_cast<uint64_t>(i);
    corpus.push_back(vr::GenerateVideoFrames(spec).value());
  }
  return corpus;
}

vr::EngineOptions BenchOptions() {
  vr::EngineOptions options;  // all seven extractors, the honest load
  options.store_video_blob = true;
  return options;
}

struct RunResult {
  std::string label;
  double seconds = 0.0;
  double videos_per_sec = 0.0;
};

RunResult RunSerial(const std::vector<std::vector<vr::Image>>& corpus) {
  const std::string dir = "/tmp/vretrieve_bench_ingest_serial";
  vr::RemoveDirRecursive(dir);
  auto engine = vr::RetrievalEngine::Open(dir, BenchOptions()).value();
  vr::Stopwatch timer;
  for (size_t i = 0; i < corpus.size(); ++i) {
    (void)engine->IngestFrames(corpus[i], "bench_" + std::to_string(i))
        .value();
  }
  RunResult result;
  result.label = "serial";
  result.seconds = timer.ElapsedMillis() / 1000.0;
  result.videos_per_sec = corpus.size() / result.seconds;
  vr::RemoveDirRecursive(dir);
  return result;
}

RunResult RunPipeline(const std::vector<std::vector<vr::Image>>& corpus,
                      size_t workers) {
  const std::string dir = "/tmp/vretrieve_bench_ingest_w" +
                          std::to_string(workers);
  vr::RemoveDirRecursive(dir);
  auto engine = vr::RetrievalEngine::Open(dir, BenchOptions()).value();
  vr::IngestPipelineOptions options;
  options.workers = workers;
  vr::Stopwatch timer;
  {
    vr::IngestPipeline pipeline(engine.get(), options);
    for (size_t i = 0; i < corpus.size(); ++i) {
      vr::IngestJob job;
      job.name = "bench_" + std::to_string(i);
      job.frames = corpus[i];
      pipeline.Submit(std::move(job));
    }
    for (const auto& r : pipeline.Finish()) (void)r.value();
  }
  RunResult result;
  result.label = "workers=" + std::to_string(workers);
  result.seconds = timer.ElapsedMillis() / 1000.0;
  result.videos_per_sec = corpus.size() / result.seconds;
  vr::RemoveDirRecursive(dir);
  return result;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_ingest.json";
  const unsigned cpus = vr::Thread::HardwareConcurrency();

  std::printf("building corpus: %d synthetic videos...\n", kVideos);
  const auto corpus = BuildCorpus();

  // One pass over every config: the serial loop, then each pipeline.
  const auto pass = [&] {
    std::vector<RunResult> runs;
    runs.push_back(RunSerial(corpus));
    for (size_t workers : kWorkerCounts) {
      runs.push_back(RunPipeline(corpus, workers));
    }
    return runs;
  };
  std::printf("warm-up pass...\n");
  (void)pass();
  std::vector<std::vector<double>> samples;  // [config][pass] seconds
  std::vector<RunResult> results;
  for (int p = 0; p < kTimedPasses; ++p) {
    std::printf("timed pass %d/%d...\n", p + 1, kTimedPasses);
    results = pass();
    samples.resize(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      samples[i].push_back(results[i].seconds);
    }
  }
  for (size_t i = 0; i < results.size(); ++i) {
    results[i].seconds = Median(samples[i]);
    results[i].videos_per_sec = corpus.size() / results[i].seconds;
  }

  const double baseline = results[0].videos_per_sec;
  std::printf("\n%-12s %10s %12s %9s   (%u cpus, median of %d passes)\n",
              "config", "seconds", "videos/s", "speedup", cpus, kTimedPasses);
  for (const RunResult& r : results) {
    std::printf("%-12s %10.2f %12.2f %8.2fx\n", r.label.c_str(), r.seconds,
                r.videos_per_sec, r.videos_per_sec / baseline);
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"benchmark\": \"bulk_ingest\",\n"
               "  \"videos\": %d,\n  \"cpus\": %u,\n"
               "  \"timed_passes\": %d,\n  \"runs\": [\n",
               kVideos, cpus, kTimedPasses);
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::string pass_seconds;
    for (double s : samples[i]) {
      if (!pass_seconds.empty()) pass_seconds += ", ";
      pass_seconds += vr::StringPrintf("%.3f", s);
    }
    std::fprintf(json,
                 "    {\"config\": \"%s\", \"seconds\": %.3f, "
                 "\"videos_per_sec\": %.3f, \"speedup\": %.3f, "
                 "\"pass_seconds\": [%s]}%s\n",
                 r.label.c_str(), r.seconds, r.videos_per_sec,
                 r.videos_per_sec / baseline, pass_seconds.c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
