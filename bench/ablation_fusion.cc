/// \file ablation_fusion.cc
/// \brief Ablation study behind the paper's headline claim: how does
/// retrieval precision change as features are added to the fusion, and
/// how much does the normalization strategy matter?
///
/// Not a table in the paper, but the design choice (multi-feature
/// combination) the paper's conclusion rests on; DESIGN.md calls this
/// out as the ablation bench. Every row is written to
/// BENCH_ablation.json in the working directory, which
/// scripts/check_docs.sh ties to EXPERIMENTS.md § Ablations.
///
///   ./ablation_fusion [videos_per_category] [queries_per_category]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "eval/corpus.h"
#include "eval/table1_runner.h"
#include "eval/user_study.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

/// Precision@20 of the combined ranking with only the given features
/// enabled.
vr::Result<double> CombinedPrecision(
    const std::vector<vr::FeatureKind>& features,
    vr::NormalizationKind normalization, int videos_per_category,
    int queries_per_category, uint64_t seed) {
  const std::string dir = "/tmp/vretrieve_ablation";
  vr::RemoveDirRecursive(dir);
  vr::EngineOptions options;
  options.enabled_features = features;
  options.normalization = normalization;
  options.store_video_blob = false;
  VR_ASSIGN_OR_RETURN(auto engine, vr::RetrievalEngine::Open(dir, options));
  vr::CorpusSpec corpus;
  corpus.videos_per_category = videos_per_category;
  corpus.width = 128;
  corpus.height = 96;
  corpus.seed = seed;
  VR_ASSIGN_OR_RETURN(vr::CorpusInfo info,
                      vr::BuildCorpus(engine.get(), corpus));
  std::vector<double> precisions;
  for (int c = 0; c < vr::kNumCategories; ++c) {
    const auto category = static_cast<vr::VideoCategory>(c);
    for (int q = 0; q < queries_per_category; ++q) {
      VR_ASSIGN_OR_RETURN(
          vr::Image query,
          vr::MakeQueryFrame(corpus, category,
                             7000 + static_cast<uint64_t>(c) * 100 +
                                 static_cast<uint64_t>(q)));
      VR_ASSIGN_OR_RETURN(auto results, engine->QueryByImage(query, 20));
      size_t hits = 0;
      for (const auto& r : results) {
        if (info.CategoryOf(r.v_id) == category) ++hits;
      }
      precisions.push_back(static_cast<double>(hits) / 20.0);
    }
  }
  double mean = 0;
  for (double p : precisions) mean += p;
  return mean / static_cast<double>(precisions.size());
}

}  // namespace

int main(int argc, char** argv) {
  const int videos =
      argc > 1 ? static_cast<int>(vr::ParseInt64(argv[1]).ValueOr(8)) : 8;
  const int queries =
      argc > 2 ? static_cast<int>(vr::ParseInt64(argv[2]).ValueOr(8)) : 8;
  const uint64_t seed = 77;

  // Cumulative feature sets, cheapest first.
  const std::vector<std::pair<const char*, std::vector<vr::FeatureKind>>>
      sets = {
          {"histogram only", {vr::FeatureKind::kColorHistogram}},
          {"+ naive signature",
           {vr::FeatureKind::kColorHistogram,
            vr::FeatureKind::kNaiveSignature}},
          {"+ glcm",
           {vr::FeatureKind::kColorHistogram,
            vr::FeatureKind::kNaiveSignature, vr::FeatureKind::kGlcm}},
          {"+ tamura",
           {vr::FeatureKind::kColorHistogram,
            vr::FeatureKind::kNaiveSignature, vr::FeatureKind::kGlcm,
            vr::FeatureKind::kTamura}},
          {"+ gabor",
           {vr::FeatureKind::kColorHistogram,
            vr::FeatureKind::kNaiveSignature, vr::FeatureKind::kGlcm,
            vr::FeatureKind::kTamura, vr::FeatureKind::kGabor}},
          {"+ correlogram",
           {vr::FeatureKind::kColorHistogram,
            vr::FeatureKind::kNaiveSignature, vr::FeatureKind::kGlcm,
            vr::FeatureKind::kTamura, vr::FeatureKind::kGabor,
            vr::FeatureKind::kAutoCorrelogram}},
          {"all seven",
           {vr::FeatureKind::kColorHistogram,
            vr::FeatureKind::kNaiveSignature, vr::FeatureKind::kGlcm,
            vr::FeatureKind::kTamura, vr::FeatureKind::kGabor,
            vr::FeatureKind::kAutoCorrelogram,
            vr::FeatureKind::kRegionGrowing}},
      };
  const std::vector<vr::FeatureKind>& all_seven = sets.back().second;

  /// One recorded row: \p label is the row's first cell in the printed
  /// table and in EXPERIMENTS.md.
  struct Row {
    const char* table;
    std::string label;
    double precision;
  };
  std::vector<Row> rows;
  const auto measure = [&](const char* table, std::string label,
                           const std::vector<vr::FeatureKind>& features,
                           vr::NormalizationKind normalization) {
    auto p =
        CombinedPrecision(features, normalization, videos, queries, seed);
    if (!p.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   p.status().ToString().c_str());
      return false;
    }
    rows.push_back({table, std::move(label), *p});
    return true;
  };

  for (const auto& [label, features] : sets) {
    if (!measure("fusion", label, features, vr::NormalizationKind::kMinMax)) {
      return 1;
    }
  }
  // min-max over all seven at this seed is the last fusion row.
  const double all_seven_p = rows.back().precision;
  rows.push_back({"normalization", "min-max", all_seven_p});
  for (auto [kind, name] :
       {std::make_pair(vr::NormalizationKind::kGaussian, "gaussian"),
        std::make_pair(vr::NormalizationKind::kRank, "rank")}) {
    if (!measure("normalization", name, all_seven, kind)) return 1;
  }

  const auto print = [&](const char* title, const char* table,
                         const char* first_column) {
    std::printf("=== Ablation: %s (precision@20, combined) ===\n\n", title);
    vr::TablePrinter printer({first_column, "precision@20"});
    for (const Row& r : rows) {
      if (std::string(r.table) == table) printer.AddRow(r.label, {r.precision});
    }
    printer.Print(std::cout);
    std::printf("\n");
  };
  print("feature fusion", "fusion", "feature set");
  print("score normalization, all seven features", "normalization",
        "normalization");

  const char* json_path = "BENCH_ablation.json";
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"benchmark\": \"ablation_fusion\",\n"
               "  \"videos_per_category\": %d,\n"
               "  \"queries_per_category\": %d,\n  \"rows\": [\n",
               videos, queries);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"table\": \"%s\", \"label\": \"%s\", "
                 "\"seed\": %llu, \"precision_at_20\": %.5f}%s\n",
                 r.table, r.label.c_str(),
                 static_cast<unsigned long long>(seed), r.precision,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path);
  return 0;
}
