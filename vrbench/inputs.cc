#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "retrieval/ingest_pipeline.h"
#include "storage/video_store.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread.h"

namespace vrbench {

namespace {

/// Spec of one synthetic video shaped like the corpus videos.
vr::SyntheticVideoSpec IngestVideoSpec(const vr::CorpusSpec& corpus,
                                       vr::VideoCategory category,
                                       uint64_t seed) {
  vr::SyntheticVideoSpec spec;
  spec.category = category;
  spec.width = corpus.width;
  spec.height = corpus.height;
  spec.num_scenes = corpus.scenes_per_video;
  spec.frames_per_scene = corpus.frames_per_scene;
  spec.seed = seed;
  return spec;
}

}  // namespace

vr::CorpusSpec TableOneSpec() {
  vr::CorpusSpec spec;
  spec.width = 128;
  spec.height = 96;
  spec.scenes_per_video = 8;
  spec.frames_per_scene = 10;
  return spec;
}

double GroundTruth::PrecisionAt20(const std::vector<int64_t>& v_ids,
                                  vr::VideoCategory category) const {
  size_t relevant = 0;
  for (size_t i = 0; i < v_ids.size() && i < kTopK; ++i) {
    auto it = video_category.find(v_ids[i]);
    if (it != video_category.end() && it->second == category) ++relevant;
  }
  return static_cast<double>(relevant) / static_cast<double>(kTopK);
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<vr::Thread> workers;
  for (size_t t = 0; t < std::max<size_t>(1, std::min(threads, n)); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (vr::Thread& w : workers) w.join();
}

std::vector<QueryFrame> MakeQueryPool(size_t count, uint64_t seed) {
  const vr::CorpusSpec spec = TableOneSpec();
  std::vector<QueryFrame> pool(count);
  ParallelFor(count, vr::Thread::HardwareConcurrency(), [&](size_t i) {
    const auto category =
        static_cast<vr::VideoCategory>(i % vr::kNumCategories);
    pool[i].category = category;
    pool[i].image = vr::MakeQueryFrame(spec, category, i).value();
  });
  vr::Rng rng(seed ^ 0x900Dull);
  rng.Shuffle(&pool);
  return pool;
}

std::vector<IngestVideo> MakeIngestVideos(size_t count, uint64_t seed) {
  const vr::CorpusSpec spec = TableOneSpec();
  std::vector<IngestVideo> videos(count);
  ParallelFor(count, vr::Thread::HardwareConcurrency(), [&](size_t i) {
    videos[i].category =
        static_cast<vr::VideoCategory>(i % vr::kNumCategories);
    // Seeds far from the corpus and query seed spaces.
    videos[i].frames =
        vr::GenerateVideoFrames(
            IngestVideoSpec(spec, videos[i].category, 0xB16B00B5ULL + i))
            .value();
  });
  vr::Rng rng(seed ^ 0x1A6E57ULL);
  rng.Shuffle(&videos);
  return videos;
}

std::vector<Op> MakeMixedSchedule(size_t length, const std::vector<int64_t>& ids,
                                  size_t pool_size, uint64_t seed) {
  vr::Rng rng(seed);
  std::vector<Op> ops(length);
  for (Op& op : ops) {
    op.by_id = rng.Bernoulli(0.5);
    if (op.by_id) {
      op.id = ids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
    } else {
      op.frame = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool_size) - 1));
    }
  }
  return ops;
}

vr::Result<CorpusBuild> IngestTableOneCorpus(const std::string& dir,
                                             const std::string& video_dir) {
  const vr::CorpusSpec spec = TableOneSpec();
  // The same videos, names and order as eval/corpus BuildCorpus, written
  // as .vsv files (a lossless container) so the pipeline decodes them on
  // its workers, as a bulk file ingest does.
  const size_t videos =
      static_cast<size_t>(vr::kNumCategories * spec.videos_per_category);
  std::filesystem::create_directories(video_dir);
  std::vector<vr::IngestJob> jobs(videos);
  std::vector<vr::Status> written(videos);
  ParallelFor(videos, vr::Thread::HardwareConcurrency(), [&](size_t i) {
    const int c = static_cast<int>(i) / spec.videos_per_category;
    const int v = static_cast<int>(i) % spec.videos_per_category;
    const auto category = static_cast<vr::VideoCategory>(c);
    vr::SyntheticVideoSpec vs = IngestVideoSpec(
        spec, category,
        spec.seed * 1000003ULL + static_cast<uint64_t>(c) * 131 +
            static_cast<uint64_t>(v));
    jobs[i].name = vr::StringPrintf("%s_%02d", vr::CategoryName(category), v);
    jobs[i].path = video_dir + "/" + jobs[i].name + ".vsv";
    written[i] = vr::GenerateVideoFile(vs, jobs[i].path).status();
  });
  for (const vr::Status& status : written) VR_RETURN_NOT_OK(status);

  VR_ASSIGN_OR_RETURN(auto engine, vr::RetrievalEngine::Open(dir));
  CorpusBuild build;
  vr::Stopwatch timer;
  {
    vr::IngestPipeline pipeline(engine.get());
    for (vr::IngestJob& job : jobs) (void)pipeline.Submit(std::move(job));
    const std::vector<vr::Result<int64_t>>& results = pipeline.Finish();
    for (size_t i = 0; i < results.size(); ++i) {
      VR_RETURN_NOT_OK(results[i].status());
      build.truth.video_category[results[i].value()] =
          static_cast<vr::VideoCategory>(static_cast<int>(i) /
                                         spec.videos_per_category);
    }
  }
  build.ingest_s = timer.ElapsedSeconds();
  build.key_frames = engine->indexed_key_frames();
  std::filesystem::remove_all(video_dir);
  return build;
}

vr::Status CloneRows(const std::string& dir, size_t rows, uint64_t seed,
                     GroundTruth* truth) {
  VR_ASSIGN_OR_RETURN(auto store, vr::VideoStore::Open(dir));
  std::map<int64_t, std::vector<vr::KeyFrameRecord>> by_video;
  VR_RETURN_NOT_OK(store->ScanKeyFrames([&](const vr::KeyFrameRecord& rec) {
    truth->frame_video[rec.i_id] = rec.v_id;
    by_video[rec.v_id].push_back(rec);
    return true;
  }));
  // One clone video per source video, holding every round of its clones.
  std::map<int64_t, std::vector<vr::KeyFrameRecord>> clones;
  vr::Rng rng(seed ^ 0xC10E5ULL);
  size_t stored = truth->frame_video.size();
  while (stored < rows) {
    for (const auto& [source_v_id, source_rows] : by_video) {
      for (const vr::KeyFrameRecord& source : source_rows) {
        if (stored == rows) break;
        vr::KeyFrameRecord rec = source;
        for (auto& [kind, vec] : rec.features) {
          for (double& x : vec.values()) x *= 1.0 + 0.01 * rng.Gaussian();
        }
        clones[source_v_id].push_back(std::move(rec));
        ++stored;
      }
    }
  }
  for (auto& [source_v_id, batch] : clones) {
    vr::VideoRecord video;
    video.v_id = store->NextVideoId();
    video.v_name = vr::StringPrintf("clone_of_%lld",
                                    static_cast<long long>(source_v_id));
    video.dostore = "2026-01-01";
    VR_RETURN_NOT_OK(store->PutVideo(video).status());
    truth->video_category[video.v_id] = truth->video_category.at(source_v_id);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].i_id = store->NextKeyFrameId();
      batch[i].i_name = video.v_name + "#" + std::to_string(i);
      batch[i].v_id = video.v_id;
      truth->frame_video[batch[i].i_id] = video.v_id;
    }
    VR_RETURN_NOT_OK(store->PutKeyFrames(batch));
  }
  return store->Checkpoint();
}

}  // namespace vrbench
