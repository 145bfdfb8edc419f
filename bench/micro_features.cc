/// \file micro_features.cc
/// \brief Feature-extraction benchmark: the fused ExtractionPlan, split
/// into per-extractor and per-intermediate timings.
/// Plain executable (see EXPERIMENTS.md "Feature extraction" for the
/// reproducible recipe); writes machine-readable results to
/// BENCH_features.json (or the path given as argv[1]).
///
/// Over 20 held-out query frames of the Table 1 corpus (128x96, the
/// frames vr-bench's image_cold workload sends) it reports:
///  - per-extractor time inside each ExtractShared (excludes shared
///    intermediates);
///  - per-intermediate time (gray plane, gray histogram, HSV plane,
///    float luma);
///  - the whole-bank ExtractAll cost, serial and forked onto one
///    helper thread (the caller plus one helper, the fork a query makes
///    when the engine has a core to spare) — the number the query
///    path's extract_ms actually pays.
///
/// Every run first checks that the plan, serial and forked, reproduces
/// the golden-feature fixture (tests/data/golden_features.txt) bit for
/// bit, and that the
/// check rejects a fixture with one Gabor bit flipped, once on each FFT
/// kernel build: the portable one and, where the CPU has AVX2, the
/// AVX2 one (the timed passes use the build the process dispatches
/// to). `--smoke` keeps that gate on a seconds-scale pass and skips
/// the JSON; scripts/check_all.sh uses it as a regression gate, so it
/// also covers the portable fallback on an AVX2 host.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "eval/corpus.h"
#include "features/plan/extraction_plan.h"
#include "golden_features.h"
#include "imaging/fft.h"
#include "util/fork_join.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

/// The frames the gated query workload extracts: held-out corpus frames
/// (MakeQueryFrame) at the Table 1 corpus geometry, the five categories
/// in turn.
constexpr int kWidth = 128;
constexpr int kHeight = 96;
constexpr int kFrames = 20;

std::vector<vr::Image> QueryFrames() {
  vr::CorpusSpec spec;
  spec.width = kWidth;
  spec.height = kHeight;
  std::vector<vr::Image> frames;
  for (int i = 0; i < kFrames; ++i) {
    const auto category =
        static_cast<vr::VideoCategory>(i % vr::kNumCategories);
    frames.push_back(vr::MakeQueryFrame(spec, category, i).value());
  }
  return frames;
}

std::vector<const vr::FeatureExtractor*> Raw(
    const std::vector<std::unique_ptr<vr::FeatureExtractor>>& owned) {
  std::vector<const vr::FeatureExtractor*> raw;
  for (const auto& e : owned) raw.push_back(e.get());
  return raw;
}

using Fixture = std::map<std::string, vr::FeatureVector>;

/// Empty when a plan over each golden extractor set reproduces
/// \p fixture bit for bit on every golden frame, else the first
/// mismatch as "<frame> <label>: <difference>". The plan runs serially
/// without \p helpers, else forked onto them.
std::string FirstGoldenMismatch(const Fixture& fixture,
                                const vr::ForkHelpers& helpers) {
  const auto frames = vr::golden::Frames();
  for (const auto& set : vr::golden::ExtractorSets()) {
    vr::ExtractionPlan plan(vr::golden::Extractors(set));
    for (const auto& frame : frames) {
      const vr::FeatureMap fused =
          plan.ExtractAll(frame.image, nullptr, helpers).value();
      for (const auto& c : set) {
        const std::string key = vr::golden::Key(frame.name, c.label);
        const auto want = fixture.find(key);
        const std::string diff =
            want == fixture.end()
                ? "missing from the fixture"
                : vr::golden::Mismatch(want->second,
                                       fused.at(c.extractor->kind()));
        if (!diff.empty()) return key + ": " + diff;
      }
    }
  }
  return "";
}

/// Dies loudly unless the plan, on FFT kernel build \p build, reproduces
/// the golden-feature fixture bit for bit, serial and forked onto
/// \p helpers — the contract the ctest suite pins, re-checked here so
/// the bench numbers are meaningful. The forked helper runs under the
/// caller's kernel pin. A must-fail probe then flips the lowest bit of
/// one Gabor value (filter 29, a cropped one in the bank's second half,
/// the unit a helper usually claims first) in the fixture and dies
/// unless both comparisons reject it, so a gate that cannot fail cannot
/// pass.
void AssertGolden(vr::fft_internal::KernelBuild build, const char* label,
                  const vr::ForkHelpers& helpers) {
  vr::fft_internal::ScopedKernelBuild pin(build);
  auto fixture = vr::golden::LoadFixture(VR_GOLDEN_FEATURES);
  if (!fixture.ok()) {
    std::fprintf(stderr, "%s\n", fixture.status().ToString().c_str());
    std::exit(1);
  }
  constexpr size_t kProbeDim = 59;
  const std::string probe_key = vr::golden::Key("noise_120x90", "gabor");
  const std::string probe_prefix =
      probe_key + ": dim " + std::to_string(kProbeDim) + ":";
  for (const bool forked : {false, true}) {
    const char* mode = forked ? "forked" : "serial";
    const vr::ForkHelpers run = forked ? helpers : vr::ForkHelpers{};
    const std::string diff = FirstGoldenMismatch(*fixture, run);
    if (!diff.empty()) {
      std::fprintf(stderr, "GOLDEN FAILURE (%s kernels, %s): %s\n", label,
                   mode, diff.c_str());
      std::exit(1);
    }
    Fixture probed_fixture = *fixture;
    double& probed = probed_fixture.at(probe_key).values().at(kProbeDim);
    probed = std::bit_cast<double>(std::bit_cast<uint64_t>(probed) ^ 1);
    const std::string probe = FirstGoldenMismatch(probed_fixture, run);
    if (probe.rfind(probe_prefix, 0) != 0) {
      const std::string verdict =
          probe.empty() ? "accepted" : "reported as " + probe;
      std::fprintf(stderr,
                   "GOLDEN PROBE DID NOT FIRE (%s kernels, %s): a one-bit "
                   "flip in %s dim %zu was %s\n",
                   label, mode, probe_key.c_str(), kProbeDim,
                   verdict.c_str());
      std::exit(1);
    }
  }
  std::printf(
      "golden (%s kernels): plan output, serial and forked, bit-identical "
      "to the fixture; one-bit probe rejected\n",
      label);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_features.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  const size_t iters = smoke ? 4 : 60;

  const auto extractors = vr::MakeAllExtractors();
  vr::ExtractionPlan plan(Raw(extractors));
  const std::vector<vr::Image> frames = QueryFrames();

  // One helper thread: the fork a query makes on an engine with a core
  // to spare.
  vr::ThreadPoolOptions pool_options;
  pool_options.num_threads = 1;
  vr::ThreadPool pool(pool_options);
  vr::ForkHelpers helpers;
  helpers.pool = &pool;
  helpers.count = 1;

  AssertGolden(vr::fft_internal::KernelBuild::kPortable, "portable", helpers);
  if (vr::fft_internal::Avx2Supported()) {
    AssertGolden(vr::fft_internal::KernelBuild::kAvx2, "AVX2", helpers);
  } else {
    std::printf("golden (AVX2 kernels): skipped, the CPU lacks AVX2\n");
  }

  // Warm the plan's scratch (FFT plan, filter bank, arena) so the timed
  // loop measures the steady state.
  for (const vr::Image& img : frames) {
    if (!plan.ExtractAll(img).ok()) return 1;
    if (!plan.ExtractAll(img, nullptr, helpers).ok()) return 1;
  }

  // One ExtractAll pass per frame, cost split by the plan's own
  // timers (extractor time excludes the shared intermediates).
  std::vector<double> fused_ms(extractors.size(), 0.0);
  std::vector<double> intermediate_ms(vr::kNumIntermediates, 0.0);
  double fused_total_ms = 0.0;
  {
    vr::Stopwatch sw;
    for (size_t i = 0; i < iters; ++i) {
      vr::ExtractionPlan::FrameTimings timings;
      auto bank = plan.ExtractAll(frames[i % frames.size()], &timings);
      if (!bank.ok()) return 1;
      for (size_t e = 0; e < extractors.size(); ++e) {
        const auto kind = static_cast<size_t>(extractors[e]->kind());
        fused_ms[e] += static_cast<double>(timings.extractor_ns[kind]) / 1e6;
      }
      for (uint32_t b = 0; b < vr::kNumIntermediates; ++b) {
        intermediate_ms[b] +=
            static_cast<double>(timings.intermediate_ns[b]) / 1e6;
      }
    }
    fused_total_ms = sw.ElapsedMillis() / static_cast<double>(iters);
  }
  // The same passes forked onto the helper: wall time only (the plan's
  // timers would sum both threads).
  double forked_total_ms = 0.0;
  {
    vr::Stopwatch sw;
    for (size_t i = 0; i < iters; ++i) {
      if (!plan.ExtractAll(frames[i % frames.size()], nullptr, helpers).ok()) {
        return 1;
      }
    }
    forked_total_ms = sw.ElapsedMillis() / static_cast<double>(iters);
  }
  for (double& ms : fused_ms) ms /= static_cast<double>(iters);
  for (double& ms : intermediate_ms) ms /= static_cast<double>(iters);

  std::printf("\n%-18s %10s\n", "extractor", "fused_ms");
  for (size_t e = 0; e < extractors.size(); ++e) {
    std::printf("%-18s %10.3f\n", vr::FeatureKindName(extractors[e]->kind()),
                fused_ms[e]);
  }
  std::printf("\n%-18s %10s\n", "intermediate", "ms");
  for (uint32_t b = 0; b < vr::kNumIntermediates; ++b) {
    std::printf("%-18s %10.3f\n", vr::IntermediateName(b), intermediate_ms[b]);
  }
  std::printf("\nwhole bank (%dx%d): fused %.2f ms, forked (caller + 1 "
              "helper) %.2f ms\n",
              kWidth, kHeight, fused_total_ms, forked_total_ms);

  if (smoke) {
    std::printf("\nmicro_features smoke: PASS\n");
    return 0;
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"benchmark\": \"features\",\n"
               "  \"frame\": \"%dx%d\",\n  \"frames\": %d,\n"
               "  \"iterations\": %zu,\n"
               "  \"fused_total_ms\": %.3f,\n"
               "  \"forked_total_ms\": %.3f,\n  \"extractors\": [\n",
               kWidth, kHeight, kFrames, iters, fused_total_ms,
               forked_total_ms);
  for (size_t e = 0; e < extractors.size(); ++e) {
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"fused_ms\": %.4f}%s\n",
                 vr::FeatureKindName(extractors[e]->kind()), fused_ms[e],
                 e + 1 < extractors.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"intermediates\": [\n");
  for (uint32_t b = 0; b < vr::kNumIntermediates; ++b) {
    std::fprintf(json, "    {\"name\": \"%s\", \"ms\": %.4f}%s\n",
                 vr::IntermediateName(b), intermediate_ms[b],
                 b + 1 < vr::kNumIntermediates ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
