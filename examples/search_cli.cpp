/// \file search_cli.cpp
/// \brief Interactive search console over an ingested corpus — the User
/// role of the paper's Figure 2 use-case diagram and the search screen
/// of its Figures 9-10, as a terminal UI.
///
///   ./search_cli [db_dir] [--create] [--degraded]
///   ./search_cli --connect <host> <port>
///   ./search_cli [db_dir] --query-id <frame_id> [k]
///   ./search_cli --connect <host> <port> --query-id <frame_id> [k]
///
/// In the default local mode the database directory must already exist
/// (pass --create to start a fresh one). With --connect the console
/// speaks the binary wire protocol to a running serve_cli instead of
/// opening a database; query/queryfile/single/stats/shutdown work
/// remotely.
///
/// --query-id runs one non-interactive query-by-stored-id: the query
/// features are read straight from the columnar store (no extraction),
/// results print to stdout and the process exits — the scriptable
/// entry point to the engine's by-id fast path, local or remote.
///
/// Commands:
///   seed                      build a small demo corpus (if empty)
///   list                      list stored videos
///   find <substring>          metadata search over video names
///   query <category> [k]      search with a fresh frame of a category
///   queryfile <image.ppm> [k] search with an image file
///   single <feature> <category> rank by one feature only
///   like <v_id>               mark last results from v_id relevant and
///                             re-weight features (relevance feedback)
///   video <v_id>              show a video's key frames
///   quit

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "eval/table1_runner.h"
#include "imaging/ppm.h"
#include "retrieval/browse.h"
#include "retrieval/engine.h"
#include "retrieval/feedback.h"
#include "service/client.h"
#include "util/cli_flags.h"
#include "util/env.h"
#include "util/string_util.h"
#include "video/synth/generator.h"

namespace {

vr::Result<vr::VideoCategory> ParseCategory(const std::string& name) {
  for (int c = 0; c < vr::kNumCategories; ++c) {
    const auto cat = static_cast<vr::VideoCategory>(c);
    if (name == vr::CategoryName(cat)) return cat;
  }
  return vr::Status::InvalidArgument(
      "unknown category (use e-learning/sports/cartoon/movie/news)");
}

vr::Image FreshFrame(vr::VideoCategory category, uint64_t seed) {
  vr::SyntheticVideoSpec spec;
  spec.category = category;
  spec.width = 120;
  spec.height = 90;
  spec.num_scenes = 1;
  spec.frames_per_scene = 3;
  spec.seed = 0xC0FFEE + seed;
  return vr::GenerateVideoFrames(spec).value()[1];
}

void PrintResultRows(const std::vector<vr::QueryResult>& results,
                     const vr::CandidateStats& stats) {
  std::printf("%-5s %-8s %-8s %-10s\n", "rank", "i_id", "v_id", "score");
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("%-5zu %-8lld %-8lld %-10.4f\n", i + 1,
                static_cast<long long>(results[i].i_id),
                static_cast<long long>(results[i].v_id), results[i].score);
  }
  std::printf("(scored %zu of %zu key frames)\n", stats.candidates,
              stats.total);
}

void PrintRemoteResponse(const vr::ServiceResponse& response) {
  if (response.status.IsPartialResult()) {
    // Degraded store: the ranked results are real, just incomplete —
    // show them with the damage summary instead of hiding them.
    std::printf("warning: %s\n", response.status.ToString().c_str());
  } else if (!response.status.ok()) {
    std::printf("%s\n", response.status.ToString().c_str());
    return;
  }
  PrintResultRows(response.results, response.stats);
}

/// One-shot remote query-by-stored-id: connect, rank against the
/// features stored for \p frame_id, print, exit.
int RunRemoteQueryById(const std::string& host, uint16_t port,
                       int64_t frame_id, size_t k) {
  auto client_result = vr::VrClient::Connect(host, port);
  if (!client_result.ok()) {
    std::fprintf(stderr, "error: cannot connect to %s:%u — %s\n",
                 host.c_str(), static_cast<unsigned>(port),
                 client_result.status().ToString().c_str());
    return 1;
  }
  auto response = (*client_result)->QueryById(frame_id, k);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  if (!response->status.ok() && !response->status.IsPartialResult()) {
    std::fprintf(stderr, "%s\n", response->status.ToString().c_str());
    return 1;
  }
  PrintRemoteResponse(*response);
  return 0;
}

/// Remote console: the same query commands, served over the wire.
int RunClientMode(const std::string& host, uint16_t port) {
  auto client_result = vr::VrClient::Connect(host, port);
  if (!client_result.ok()) {
    std::fprintf(stderr,
                 "error: cannot connect to %s:%u — %s\n"
                 "(is serve_cli running there?)\n",
                 host.c_str(), static_cast<unsigned>(port),
                 client_result.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(client_result).value();
  std::printf("connected to vretrieve server at %s:%u\n", host.c_str(),
              static_cast<unsigned>(port));
  std::printf("type 'help' for commands\n");

  uint64_t query_counter = 0;
  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    const std::vector<std::string> args = vr::SplitWhitespace(line);
    if (args.empty()) continue;
    const std::string& cmd = args[0];
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::printf(
          "  query <category> [k] | queryfile <ppm> [k]\n"
          "  single <feature> <category> [k] | stats | shutdown | quit\n");
    } else if (cmd == "stats") {
      auto stats = client->GetStats();
      if (!stats.ok()) {
        std::printf("%s\n", stats.status().ToString().c_str());
        continue;
      }
      std::printf("received=%llu served=%llu rejected=%llu expired=%llu "
                  "failed=%llu degraded=%llu in_flight=%llu\n",
                  static_cast<unsigned long long>(stats->received),
                  static_cast<unsigned long long>(stats->served),
                  static_cast<unsigned long long>(stats->rejected),
                  static_cast<unsigned long long>(stats->expired),
                  static_cast<unsigned long long>(stats->failed),
                  static_cast<unsigned long long>(stats->degraded),
                  static_cast<unsigned long long>(stats->in_flight));
      std::printf("latency: n=%llu p50=%.2fms p95=%.2fms p99=%.2fms\n",
                  static_cast<unsigned long long>(stats->latency_count),
                  stats->p50_ms, stats->p95_ms, stats->p99_ms);
      std::printf("pager: fetches=%llu hits=%llu misses=%llu evictions=%llu "
                  "checksum_failures=%llu\n",
                  static_cast<unsigned long long>(stats->pager.fetches),
                  static_cast<unsigned long long>(stats->pager.hits),
                  static_cast<unsigned long long>(stats->pager.misses),
                  static_cast<unsigned long long>(stats->pager.evictions),
                  static_cast<unsigned long long>(
                      stats->pager.checksum_failures));
      std::printf("query: image=%llu video=%llu by_id=%llu "
                  "cache_hits=%llu cache_misses=%llu\n",
                  static_cast<unsigned long long>(stats->query.image_queries),
                  static_cast<unsigned long long>(stats->query.video_queries),
                  static_cast<unsigned long long>(stats->query.id_queries),
                  static_cast<unsigned long long>(stats->query.cache_hits),
                  static_cast<unsigned long long>(stats->query.cache_misses));
      std::printf("two-stage: queries=%llu coarse_survivors=%llu "
                  "fallbacks=%llu margin_kept=%llu\n",
                  static_cast<unsigned long long>(
                      stats->query.two_stage_queries),
                  static_cast<unsigned long long>(
                      stats->query.coarse_candidates),
                  static_cast<unsigned long long>(
                      stats->query.two_stage_fallbacks),
                  static_cast<unsigned long long>(stats->query.margin_kept));
    } else if (cmd == "shutdown") {
      const vr::Status st = client->Shutdown();
      if (!st.ok()) {
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::printf("server acknowledged shutdown\n");
      break;
    } else if (cmd == "query" && args.size() >= 2) {
      auto category = ParseCategory(args[1]);
      if (!category.ok()) {
        std::printf("%s\n", category.status().ToString().c_str());
        continue;
      }
      const size_t k = args.size() > 2
                           ? static_cast<size_t>(
                                 vr::ParseInt64(args[2]).ValueOr(10))
                           : 10;
      const vr::Image query = FreshFrame(*category, ++query_counter);
      auto response = client->Query(query, k);
      if (!response.ok()) {
        std::printf("%s\n", response.status().ToString().c_str());
        continue;
      }
      PrintRemoteResponse(*response);
    } else if (cmd == "queryfile" && args.size() >= 2) {
      auto img = vr::ReadPnm(args[1]);
      if (!img.ok()) {
        std::printf("%s\n", img.status().ToString().c_str());
        continue;
      }
      const size_t k = args.size() > 2
                           ? static_cast<size_t>(
                                 vr::ParseInt64(args[2]).ValueOr(10))
                           : 10;
      auto response = client->Query(*img, k);
      if (!response.ok()) {
        std::printf("%s\n", response.status().ToString().c_str());
        continue;
      }
      PrintRemoteResponse(*response);
    } else if (cmd == "single" && args.size() >= 3) {
      auto kind = vr::FeatureKindFromName(args[1]);
      auto category = ParseCategory(args[2]);
      if (!kind.ok() || !category.ok()) {
        std::printf("usage: single <feature> <category> [k]\n");
        continue;
      }
      const size_t k = args.size() > 3
                           ? static_cast<size_t>(
                                 vr::ParseInt64(args[3]).ValueOr(10))
                           : 10;
      const vr::Image query = FreshFrame(*category, ++query_counter);
      auto response = client->Query(query, k, vr::QueryMode::kSingleFeature,
                                    *kind);
      if (!response.ok()) {
        std::printf("%s\n", response.status().ToString().c_str());
        continue;
      }
      PrintRemoteResponse(*response);
    } else {
      std::printf("unknown command; type 'help'\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  static const vr::CliSpec kSpec{
      "search_cli",
      "[db_dir]",
      {},
      {
          {"--connect", "<host> <port>", "query a remote serve_cli instead"},
          {"--create", nullptr, "create the database if missing"},
          {"--degraded", nullptr,
           "open a damaged store, quarantining broken tables"},
          {"--query-id", "<frame_id> [k]",
           "one-shot query by stored key-frame id, then exit"},
          {"--help", nullptr, "show this help and exit"},
      },
  };
  if (vr::WantsHelp(argc, argv)) return vr::PrintHelp(kSpec);
  std::string dir = "/tmp/vretrieve_search";
  bool create = false;
  bool degraded = false;
  bool dir_given = false;
  bool connect_given = false;
  std::string host;
  uint16_t port = 0;
  bool query_id_given = false;
  int64_t query_id = 0;
  size_t query_id_k = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect") {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "usage: %s --connect <host> <port>\n", argv[0]);
        return 2;
      }
      connect_given = true;
      host = argv[i + 1];
      port = static_cast<uint16_t>(std::atoi(argv[i + 2]));
      i += 2;
    } else if (arg == "--query-id") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s --query-id <frame_id> [k]\n",
                     argv[0]);
        return 2;
      }
      auto id = vr::ParseInt64(argv[i + 1]);
      if (!id.ok()) {
        std::fprintf(stderr, "bad frame id '%s'\n", argv[i + 1]);
        return 2;
      }
      query_id_given = true;
      query_id = *id;
      ++i;
      // Optional k right after the id.
      if (i + 1 < argc) {
        auto k = vr::ParseInt64(argv[i + 1]);
        if (k.ok() && *k > 0) {
          query_id_k = static_cast<size_t>(*k);
          ++i;
        }
      }
    } else if (arg == "--create") {
      create = true;
    } else if (arg == "--degraded") {
      degraded = true;
    } else if (!dir_given && arg.rfind("--", 0) != 0) {
      dir = arg;
      dir_given = true;
    } else {
      return vr::PrintUsageError(kSpec);
    }
  }
  if (connect_given) {
    return query_id_given
               ? RunRemoteQueryById(host, port, query_id, query_id_k)
               : RunClientMode(host, port);
  }

  if (!vr::Env::Default()->FileExists(dir) && !create) {
    std::fprintf(stderr,
                 "error: database directory '%s' does not exist\n"
                 "(pass --create to start a fresh one, or point at an "
                 "ingested corpus)\n",
                 dir.c_str());
    return 1;
  }

  vr::EngineOptions options;
  options.paranoid = !degraded;
  auto engine_result = vr::RetrievalEngine::Open(dir, options);
  if (!engine_result.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 engine_result.status().ToString().c_str());
    if (!degraded && engine_result.status().IsCorruption()) {
      std::fprintf(stderr,
                   "(pass --degraded to quarantine the damaged tables and "
                   "search the healthy remainder)\n");
    }
    return 1;
  }
  auto engine = std::move(engine_result).value();
  for (const vr::TableDamage& damage : engine->DamageReport()) {
    std::fprintf(stderr, "warning: table %s quarantined: %s\n",
                 damage.table.c_str(), damage.reason.ToString().c_str());
  }
  if (query_id_given) {
    vr::CandidateStats stats;
    auto results = engine->QueryByStoredId(query_id, query_id_k, {}, &stats);
    if (!results.ok()) {
      std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
      return 1;
    }
    PrintResultRows(*results, stats);
    return 0;
  }
  std::printf("vretrieve search console — %zu key frames indexed in %s\n",
              engine->indexed_key_frames(), dir.c_str());
  std::printf("type 'help' for commands\n");

  uint64_t query_counter = 0;
  std::vector<vr::QueryResult> last_results;
  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    const std::vector<std::string> args = vr::SplitWhitespace(line);
    if (args.empty()) continue;
    const std::string& cmd = args[0];
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::printf(
          "  seed | list | find <substr> | query <category> [k]\n"
          "  queryfile <ppm> [k] | single <feature> <category> [k]\n"
          "  like <v_id> | sheet <out.ppm> | video <v_id> | quit\n");
    } else if (cmd == "sheet" && args.size() >= 2) {
      if (last_results.empty()) {
        std::printf("run a query first, then: sheet <out.ppm>\n");
        continue;
      }
      auto sheet = vr::RenderResultSheet(engine.get(), last_results);
      if (!sheet.ok()) {
        std::printf("%s\n", sheet.status().ToString().c_str());
        continue;
      }
      const vr::Status st = vr::WritePnm(*sheet, args[1]);
      if (!st.ok()) {
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::printf("wrote %s (%dx%d, %zu thumbnails)\n", args[1].c_str(),
                  sheet->width(), sheet->height(), last_results.size());
    } else if (cmd == "find" && args.size() >= 2) {
      auto videos = engine->store()->FindVideosByName(args[1]);
      if (!videos.ok()) {
        std::printf("%s\n", videos.status().ToString().c_str());
        continue;
      }
      std::printf("%-6s %-24s %-12s\n", "v_id", "name", "stored");
      for (const auto& v : *videos) {
        std::printf("%-6lld %-24s %-12s\n", static_cast<long long>(v.v_id),
                    v.v_name.c_str(), v.dostore.c_str());
      }
    } else if (cmd == "like" && args.size() >= 2) {
      auto v_id = vr::ParseInt64(args[1]);
      if (!v_id.ok() || last_results.empty()) {
        std::printf("run a query first, then: like <v_id>\n");
        continue;
      }
      vr::FeedbackJudgments judgments;
      for (const vr::QueryResult& r : last_results) {
        if (r.v_id == *v_id) {
          judgments.relevant.push_back(r.i_id);
        } else {
          judgments.non_relevant.push_back(r.i_id);
        }
      }
      auto weights = vr::ApplyRelevanceFeedback(engine.get(), last_results,
                                                judgments);
      if (!weights.ok()) {
        std::printf("%s\n", weights.status().ToString().c_str());
        continue;
      }
      std::printf("re-weighted features:");
      for (const auto& [kind, w] : *weights) {
        std::printf(" %s=%.2f", vr::FeatureKindName(kind), w);
      }
      std::printf("\nre-run your query to see the effect\n");
    } else if (cmd == "seed") {
      for (int c = 0; c < vr::kNumCategories; ++c) {
        vr::SyntheticVideoSpec spec;
        spec.category = static_cast<vr::VideoCategory>(c);
        spec.width = 120;
        spec.height = 90;
        spec.num_scenes = 3;
        spec.frames_per_scene = 10;
        spec.seed = 500 + static_cast<uint64_t>(c);
        const auto frames = vr::GenerateVideoFrames(spec).value();
        auto v_id = engine->IngestFrames(
            frames, std::string("seed_") +
                        vr::CategoryName(spec.category));
        if (!v_id.ok()) {
          std::printf("ingest failed: %s\n", v_id.status().ToString().c_str());
          break;
        }
        std::printf("ingested %s as video %lld\n",
                    vr::CategoryName(spec.category),
                    static_cast<long long>(*v_id));
      }
    } else if (cmd == "list") {
      const auto videos = engine->store()->ListVideos().value();
      std::printf("%-6s %-24s %-12s\n", "v_id", "name", "stored");
      for (const auto& v : videos) {
        std::printf("%-6lld %-24s %-12s\n", static_cast<long long>(v.v_id),
                    v.v_name.c_str(), v.dostore.c_str());
      }
    } else if (cmd == "query" && args.size() >= 2) {
      auto category = ParseCategory(args[1]);
      if (!category.ok()) {
        std::printf("%s\n", category.status().ToString().c_str());
        continue;
      }
      const size_t k = args.size() > 2
                           ? static_cast<size_t>(
                                 vr::ParseInt64(args[2]).ValueOr(10))
                           : 10;
      const vr::Image query = FreshFrame(*category, ++query_counter);
      vr::CandidateStats stats;
      auto results = engine->QueryByImage(query, k, {}, &stats);
      if (!results.ok()) {
        std::printf("%s\n", results.status().ToString().c_str());
        continue;
      }
      last_results = *results;
      PrintResultRows(*results, stats);
    } else if (cmd == "queryfile" && args.size() >= 2) {
      auto img = vr::ReadPnm(args[1]);
      if (!img.ok()) {
        std::printf("%s\n", img.status().ToString().c_str());
        continue;
      }
      const size_t k = args.size() > 2
                           ? static_cast<size_t>(
                                 vr::ParseInt64(args[2]).ValueOr(10))
                           : 10;
      vr::CandidateStats stats;
      auto results = engine->QueryByImage(*img, k, {}, &stats);
      if (!results.ok()) {
        std::printf("%s\n", results.status().ToString().c_str());
        continue;
      }
      last_results = *results;
      PrintResultRows(*results, stats);
    } else if (cmd == "single" && args.size() >= 3) {
      auto kind = vr::FeatureKindFromName(args[1]);
      auto category = ParseCategory(args[2]);
      if (!kind.ok() || !category.ok()) {
        std::printf("usage: single <feature> <category> [k]\n");
        continue;
      }
      const size_t k = args.size() > 3
                           ? static_cast<size_t>(
                                 vr::ParseInt64(args[3]).ValueOr(10))
                           : 10;
      const vr::Image query = FreshFrame(*category, ++query_counter);
      vr::CandidateStats stats;
      auto results =
          engine->QueryByImageSingleFeature(query, *kind, k, {}, &stats);
      if (!results.ok()) {
        std::printf("%s\n", results.status().ToString().c_str());
        continue;
      }
      last_results = *results;
      PrintResultRows(*results, stats);
    } else if (cmd == "video" && args.size() >= 2) {
      auto v_id = vr::ParseInt64(args[1]);
      if (!v_id.ok()) {
        std::printf("bad video id\n");
        continue;
      }
      auto ids = engine->store()->KeyFrameIdsOfVideo(*v_id);
      if (!ids.ok()) {
        std::printf("%s\n", ids.status().ToString().c_str());
        continue;
      }
      std::printf("video %lld has %zu key frames:",
                  static_cast<long long>(*v_id), ids->size());
      for (int64_t i : *ids) std::printf(" %lld", static_cast<long long>(i));
      std::printf("\n");
    } else {
      std::printf("unknown command; type 'help'\n");
    }
  }
  return 0;
}
