/// \file fig7_index_tree.cc
/// \brief Regenerates the paper's Figure 7 (the histogram range-finder
/// indexing tree): pushes a corpus of key frames through the indexer,
/// prints the tree with per-bucket occupancy, and measures the pruning
/// factor index lookups achieve versus a full scan.
///
///   ./fig7_index_tree [videos_per_category] [seed]

#include <cstdio>

#include "eval/corpus.h"
#include "eval/table1_runner.h"
#include "index/range_bucket_index.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  const int per_category =
      argc > 1 ? static_cast<int>(vr::ParseInt64(argv[1]).ValueOr(6)) : 6;
  const uint64_t seed =
      argc > 2 ? static_cast<uint64_t>(vr::ParseInt64(argv[2]).ValueOr(42))
               : 42;

  // Build key frames via a fast engine (histogram feature only: the
  // index needs only the gray histogram).
  const std::string dir = "/tmp/vretrieve_fig7";
  vr::RemoveDirRecursive(dir);
  vr::EngineOptions options;
  options.enabled_features = {vr::FeatureKind::kColorHistogram};
  options.store_video_blob = false;
  auto engine = vr::RetrievalEngine::Open(dir, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  vr::CorpusSpec corpus;
  corpus.videos_per_category = per_category;
  corpus.width = 128;
  corpus.height = 96;
  corpus.seed = seed;
  auto info = vr::BuildCorpus(engine->get(), corpus);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }

  // Rebuild a standalone index over the stored key frames so the bucket
  // map is inspectable.
  vr::RangeBucketIndex index;
  vr::Status scan_status =
      (*engine)->store()->ScanKeyFrames([&](const vr::KeyFrameRecord& rec) {
        index.InsertAt(rec.i_id,
                       vr::GrayRange{static_cast<int>(rec.min),
                                     static_cast<int>(rec.max), 0});
        return true;
      });
  if (!scan_status.ok()) {
    std::fprintf(stderr, "%s\n", scan_status.ToString().c_str());
    return 1;
  }

  std::printf("=== Figure 7: histogram range-finder indexing tree ===\n");
  std::printf("%zu key frames in %zu occupied buckets\n\n", index.size(),
              index.bucket_count());

  // Print the full tree with occupancy, indented by depth.
  for (const vr::GrayRange& node : vr::AllTreeRanges(3)) {
    size_t occupancy = 0;
    for (const auto& [range, ids] : index.buckets()) {
      if (range.min == node.min && range.max == node.max) {
        occupancy = ids.size();
      }
    }
    const std::string bar(occupancy, '#');
    std::printf("%*s%-12s %3zu frame(s)  %s\n", node.depth * 4, "",
                node.ToString().c_str(), occupancy, bar.c_str());
  }

  // Pruning factor: average candidates per query bucket under each mode.
  // Lineage is lossless against the bucket tree, not against a full scan
  // (range_bucket_index.h).
  std::printf("\npruning (average candidate fraction over occupied "
              "buckets):\n");
  for (auto [mode, name] :
       {std::make_pair(vr::RangeLookupMode::kExact, "exact bucket"),
        std::make_pair(vr::RangeLookupMode::kLineage,
                       "lineage (tree-lossless)")}) {
    double total_fraction = 0.0;
    size_t queries = 0;
    for (const auto& [range, ids] : index.buckets()) {
      const auto candidates = index.Lookup(range, mode);
      total_fraction +=
          static_cast<double>(candidates.size()) / index.size();
      ++queries;
    }
    std::printf("  %-24s %5.1f%% of corpus scanned per query\n", name,
                100.0 * total_fraction / queries);
  }
  std::printf("  %-24s 100.0%% of corpus scanned per query\n", "full scan");
  return 0;
}
