/// \file micro_ingest.cc
/// \brief Bulk-ingest benchmark: serial IngestFrames loop versus the
/// staged IngestPipeline at 1/2/4/8 workers over the same synthetic
/// corpus, plus a 4-worker pipeline over .vsv files at the Table 1
/// shape. Plain executable (see EXPERIMENTS.md "Bulk ingest" for the
/// reproducible recipe); writes machine-readable results to
/// BENCH_ingest.json (or the path given as argv[1]).
///
/// One untimed warm-up pass over every config comes first: on a shared
/// host a run started after an idle spell otherwise spends its first
/// seconds as if on one core. Then kTimedPasses passes time every
/// config in turn, and each config records its median pass.
///
/// Ingest of in-memory frames is CPU-bound (Gabor + correlogram
/// extraction dominates; group commit keeps the one committer thread
/// off the critical path), so videos/sec should scale with workers up
/// to the physical core count. The `cpus` field in the JSON records how
/// many cores the numbers were taken on — on a single-core machine
/// every worker count collapses to ~1x. The file config is the bulk
/// ingest vr-bench's image_cold times: 40 videos of 128x96 pixels and
/// 8 scenes x 10 frames, whose 2.9 MB files the store keeps as given.
/// Every config also records the commit time per video and the peak
/// size of the journal, which a checkpoint bounds
/// (RetrievalEngine::kJournalCheckpointBytes).

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
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
/// The file config: the Table 1 corpus (5 categories x 8 videos).
constexpr int kFileVideos = 40;
constexpr size_t kFileWorkers = 4;
const char* const kFileDir = "/tmp/vretrieve_bench_ingest_files";

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

/// Writes the file config's corpus; returns the .vsv paths.
std::vector<std::string> WriteFileCorpus() {
  vr::RemoveDirRecursive(kFileDir);
  mkdir(kFileDir, 0755);
  std::vector<std::string> paths;
  for (int i = 0; i < kFileVideos; ++i) {
    vr::SyntheticVideoSpec spec;
    spec.category = static_cast<vr::VideoCategory>(i % vr::kNumCategories);
    spec.width = 128;
    spec.height = 96;
    spec.num_scenes = 8;
    spec.frames_per_scene = 10;
    spec.seed = 7000 + static_cast<uint64_t>(i);
    paths.push_back(std::string(kFileDir) + "/clip_" + std::to_string(i) +
                    ".vsv");
    (void)vr::GenerateVideoFile(spec, paths.back()).value();
  }
  return paths;
}

/// Samples the size of <dir>/journal.wal every millisecond until Stop.
/// The journal grows only inside a commit and then holds still through
/// the table apply that follows (milliseconds), so the samples see its
/// peak.
class JournalPeak {
 public:
  explicit JournalPeak(const std::string& dir)
      : path_(dir + "/journal.wal"), thread_([this] {
          while (!stop_.load(std::memory_order_acquire)) {
            Sample();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~JournalPeak() { (void)Stop(); }
  JournalPeak(const JournalPeak&) = delete;
  JournalPeak& operator=(const JournalPeak&) = delete;

  uint64_t Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    Sample();
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  void Sample() {
    struct stat st {};
    if (stat(path_.c_str(), &st) == 0) {
      const uint64_t size = static_cast<uint64_t>(st.st_size);
      if (size > peak_.load(std::memory_order_relaxed)) {
        peak_.store(size, std::memory_order_relaxed);
      }
    }
  }

  const std::string path_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_{0};
  vr::Thread thread_;
};

struct RunResult {
  std::string label;
  size_t videos = 0;
  double seconds = 0.0;
  double videos_per_sec = 0.0;
  double commit_ms_per_video = 0.0;
  uint64_t peak_journal_bytes = 0;
};

/// Fills the per-run figures every config records.
void Finish(const vr::RetrievalEngine& engine, size_t videos, double seconds,
            uint64_t peak_journal_bytes, RunResult* result) {
  result->videos = videos;
  result->seconds = seconds;
  result->videos_per_sec = static_cast<double>(videos) / seconds;
  result->commit_ms_per_video =
      engine.ingest_stats().commit_ms / static_cast<double>(videos);
  result->peak_journal_bytes = peak_journal_bytes;
}

/// The serial IngestFrames loop over the frame \p jobs.
RunResult RunSerial(const std::vector<vr::IngestJob>& jobs) {
  const std::string dir = "/tmp/vretrieve_bench_ingest_serial";
  vr::RemoveDirRecursive(dir);
  auto engine = vr::RetrievalEngine::Open(dir, BenchOptions()).value();
  JournalPeak journal(dir);
  vr::Stopwatch timer;
  for (const vr::IngestJob& job : jobs) {
    (void)engine->IngestFrames(job.frames, job.name).value();
  }
  RunResult result;
  result.label = "serial";
  Finish(*engine, jobs.size(), timer.ElapsedSeconds(), journal.Stop(),
         &result);
  engine.reset();
  vr::RemoveDirRecursive(dir);
  return result;
}

/// One pipeline pass over \p jobs (frames or paths) at \p workers.
RunResult RunPipeline(const std::string& label,
                      const std::vector<vr::IngestJob>& jobs,
                      size_t workers) {
  const std::string dir = "/tmp/vretrieve_bench_ingest_" + label;
  vr::RemoveDirRecursive(dir);
  auto engine = vr::RetrievalEngine::Open(dir, BenchOptions()).value();
  vr::IngestPipelineOptions options;
  options.workers = workers;
  JournalPeak journal(dir);
  vr::Stopwatch timer;
  {
    vr::IngestPipeline pipeline(engine.get(), options);
    for (const vr::IngestJob& job : jobs) pipeline.Submit(job);
    for (const auto& r : pipeline.Finish()) (void)r.value();
  }
  RunResult result;
  result.label = label;
  Finish(*engine, jobs.size(), timer.ElapsedSeconds(), journal.Stop(),
         &result);
  engine.reset();
  vr::RemoveDirRecursive(dir);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_ingest.json";
  const unsigned cpus = vr::Thread::HardwareConcurrency();

  std::printf("building corpus: %d synthetic videos and %d .vsv files...\n",
              kVideos, kFileVideos);
  std::vector<vr::IngestJob> frame_jobs;
  for (std::vector<vr::Image>& frames : BuildCorpus()) {
    vr::IngestJob job;
    job.name = "bench_" + std::to_string(frame_jobs.size());
    job.frames = std::move(frames);
    frame_jobs.push_back(std::move(job));
  }
  std::vector<vr::IngestJob> file_jobs;
  for (const std::string& path : WriteFileCorpus()) {
    vr::IngestJob job;
    job.name = path;
    job.path = path;
    file_jobs.push_back(std::move(job));
  }
  const std::string file_label =
      "files,workers=" + std::to_string(kFileWorkers);

  // One pass over every config: the serial loop, each pipeline over
  // the frames, then the pipeline over the files.
  const auto pass = [&] {
    std::vector<RunResult> runs;
    runs.push_back(RunSerial(frame_jobs));
    for (size_t workers : kWorkerCounts) {
      runs.push_back(RunPipeline("workers=" + std::to_string(workers),
                                 frame_jobs, workers));
    }
    runs.push_back(RunPipeline(file_label, file_jobs, kFileWorkers));
    return runs;
  };
  std::printf("warm-up pass...\n");
  (void)pass();
  std::vector<std::vector<RunResult>> samples;  // [config][pass]
  for (int p = 0; p < kTimedPasses; ++p) {
    std::printf("timed pass %d/%d...\n", p + 1, kTimedPasses);
    const std::vector<RunResult> runs = pass();
    samples.resize(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) samples[i].push_back(runs[i]);
  }
  vr::RemoveDirRecursive(kFileDir);
  // Each config records its median pass by time, with that pass's
  // commit and journal figures.
  std::vector<RunResult> results;
  for (std::vector<RunResult> runs : samples) {
    std::sort(runs.begin(), runs.end(),
              [](const RunResult& a, const RunResult& b) {
                return a.seconds < b.seconds;
              });
    results.push_back(runs[runs.size() / 2]);
  }

  // Speedups compare the frame configs with the serial loop; the file
  // config ingests another corpus and has none.
  const double baseline = results[0].videos_per_sec;
  const auto has_speedup = [&](const RunResult& r) {
    return r.label != file_label;
  };
  std::printf("\n%-16s %6s %8s %10s %8s %10s %12s   (%u cpus, median of %d "
              "passes)\n",
              "config", "videos", "seconds", "videos/s", "speedup",
              "commit ms", "journal MB", cpus, kTimedPasses);
  for (const RunResult& r : results) {
    std::printf("%-16s %6zu %8.2f %10.2f %7.2fx %10.2f %12.1f\n",
                r.label.c_str(), r.videos, r.seconds, r.videos_per_sec,
                has_speedup(r) ? r.videos_per_sec / baseline : 0.0,
                r.commit_ms_per_video,
                static_cast<double>(r.peak_journal_bytes) / (1 << 20));
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"benchmark\": \"bulk_ingest\",\n"
               "  \"videos\": %d,\n  \"file_videos\": %d,\n"
               "  \"cpus\": %u,\n  \"timed_passes\": %d,\n  \"runs\": [\n",
               kVideos, kFileVideos, cpus, kTimedPasses);
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::string pass_seconds;
    for (const RunResult& s : samples[i]) {
      if (!pass_seconds.empty()) pass_seconds += ", ";
      pass_seconds += vr::StringPrintf("%.3f", s.seconds);
    }
    const std::string speedup =
        has_speedup(r)
            ? vr::StringPrintf("\"speedup\": %.3f, ",
                               r.videos_per_sec / baseline)
            : std::string();
    std::fprintf(json,
                 "    {\"config\": \"%s\", \"seconds\": %.3f, "
                 "\"videos_per_sec\": %.3f, %s\"commit_ms_per_video\": "
                 "%.3f, \"peak_journal_bytes\": %llu, "
                 "\"pass_seconds\": [%s]}%s\n",
                 r.label.c_str(), r.seconds, r.videos_per_sec,
                 speedup.c_str(), r.commit_ms_per_video,
                 static_cast<unsigned long long>(r.peak_journal_bytes),
                 pass_seconds.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
