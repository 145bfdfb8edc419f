/// \file quickstart.cpp
/// \brief Minimal end-to-end tour of the public API:
/// generate two synthetic videos, ingest them, query by frame.
///
///   ./quickstart [db_dir]

#include <cstdio>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "retrieval/engine.h"
#include "video/synth/generator.h"

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp/vretrieve_quickstart";
  vr::RemoveDirRecursive(dir);

  // 1. Open a retrieval engine over a fresh database directory.
  vr::EngineOptions options;
  options.enabled_features = {vr::FeatureKind::kColorHistogram,
                              vr::FeatureKind::kGlcm,
                              vr::FeatureKind::kGabor,
                              vr::FeatureKind::kNaiveSignature};
  auto engine_result = vr::RetrievalEngine::Open(dir, options);
  if (!engine_result.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 engine_result.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(engine_result).value();

  // 2. Generate and ingest two synthetic videos (one cartoon, one movie).
  vr::SyntheticVideoSpec spec;
  spec.width = 120;
  spec.height = 90;
  spec.num_scenes = 3;
  spec.frames_per_scene = 12;

  spec.category = vr::VideoCategory::kCartoon;
  spec.seed = 11;
  const auto cartoon = vr::GenerateVideoFrames(spec).value();
  const int64_t cartoon_id =
      engine->IngestFrames(cartoon, "cartoon_demo").value();

  spec.category = vr::VideoCategory::kMovie;
  spec.seed = 22;
  const auto movie = vr::GenerateVideoFrames(spec).value();
  const int64_t movie_id = engine->IngestFrames(movie, "movie_demo").value();

  std::printf("ingested %zu key frames from 2 videos (ids %lld, %lld)\n",
              engine->indexed_key_frames(),
              static_cast<long long>(cartoon_id),
              static_cast<long long>(movie_id));

  // 3. Query with a fresh cartoon frame: the cartoon video should win.
  spec.category = vr::VideoCategory::kCartoon;
  spec.seed = 33;
  const vr::Image query = vr::GenerateVideoFrames(spec).value()[5];
  vr::CandidateStats stats;
  const auto results = engine->QueryByImage(query, 5, {}, &stats).value();

  std::printf("\ntop results for a cartoon query frame:\n");
  std::printf("%-6s %-6s %-10s\n", "rank", "v_id", "score");
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("%-6zu %-6lld %-10.4f\n", i + 1,
                static_cast<long long>(results[i].v_id), results[i].score);
  }
  std::printf("\nindex pruned search to %zu of %zu key frames\n",
              stats.candidates, stats.total);
  if (!results.empty() && results[0].v_id == cartoon_id) {
    std::printf("OK: the cartoon video ranks first.\n");
    return 0;
  }
  std::printf("unexpected ranking\n");
  return 1;
}
