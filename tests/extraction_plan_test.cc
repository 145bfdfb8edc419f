#include "features/plan/extraction_plan.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "golden_features.h"
#include "imaging/color.h"
#include "imaging/histogram.h"

namespace vr {
namespace {

std::vector<const FeatureExtractor*> Raw(
    const std::vector<std::unique_ptr<FeatureExtractor>>& owned) {
  std::vector<const FeatureExtractor*> raw;
  for (const auto& e : owned) raw.push_back(e.get());
  return raw;
}

const std::map<std::string, FeatureVector>& Fixture() {
  static const std::map<std::string, FeatureVector> fixture =
      golden::LoadFixture(VR_GOLDEN_FEATURES).value();
  return fixture;
}

/// Bitwise check of \p got against the fixture entry for (frame, c).
void ExpectGolden(const golden::Frame& frame, const golden::Case& c,
                  const Result<FeatureVector>& got) {
  const std::string key = golden::Key(frame.name, c.label);
  ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
  const auto it = Fixture().find(key);
  ASSERT_NE(it, Fixture().end()) << key << " missing from the golden fixture";
  EXPECT_EQ(golden::Mismatch(it->second, *got), "") << key;
}

TEST(ExtractionPlanTest, ExtractAllMatchesGoldenFixture) {
  const auto frames = golden::Frames();
  size_t cases = 0;
  for (const auto& set : golden::ExtractorSets()) {
    ExtractionPlan plan(golden::Extractors(set));
    cases += set.size();
    for (const golden::Frame& frame : frames) {
      Result<FeatureMap> fused = plan.ExtractAll(frame.image);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      ASSERT_EQ(fused->size(), set.size());
      for (const golden::Case& c : set) {
        ExpectGolden(frame, c, fused->at(c.extractor->kind()));
      }
    }
  }
  // Every fixture entry is exercised: no stale or duplicate lines.
  EXPECT_EQ(Fixture().size(), frames.size() * cases);
}

TEST(ExtractionPlanTest, ReusedPlanStaysBitIdenticalAcrossFrames) {
  // The plan's scratch (FFT buffers, arena, resize targets) persists
  // between frames; reuse must never leak one frame into the next.
  const auto frames = golden::Frames();
  for (const auto& set : golden::ExtractorSets()) {
    ExtractionPlan plan(golden::Extractors(set));
    for (int round = 0; round < 2; ++round) {
      for (const golden::Frame& frame : frames) {
        Result<FeatureMap> fused = plan.ExtractAll(frame.image);
        ASSERT_TRUE(fused.ok());
        for (const golden::Case& c : set) {
          ExpectGolden(frame, c, fused->at(c.extractor->kind()));
        }
      }
    }
  }
}

TEST(ExtractionPlanTest, ExtractOneMatchesGoldenFixture) {
  const auto frames = golden::Frames();
  for (const auto& set : golden::ExtractorSets()) {
    ExtractionPlan plan(golden::Extractors(set));
    for (const golden::Frame& frame : frames) {
      for (const golden::Case& c : set) {
        ExpectGolden(frame, c,
                     plan.ExtractOne(frame.image, c.extractor->kind()));
      }
    }
  }
}

TEST(ExtractionPlanTest, ExtractWrapperMatchesGoldenFixture) {
  for (const auto& set : golden::ExtractorSets()) {
    for (const golden::Frame& frame : golden::Frames()) {
      for (const golden::Case& c : set) {
        ExpectGolden(frame, c, c.extractor->Extract(frame.image));
      }
    }
  }
}

TEST(ExtractionPlanTest, ArenaReachesSteadyStateAcrossSameSizeFrames) {
  const auto extractors = MakeAllExtractors();
  ExtractionPlan plan(Raw(extractors));
  for (uint64_t seed = 0; seed < 4; ++seed) {
    ASSERT_TRUE(
        plan.ExtractAll(golden::NoiseImage(64, 48, 3, seed + 10)).ok());
  }
  // After the first frame warmed the arena, Reset consolidates to one
  // chunk and later same-size frames allocate nothing new.
  EXPECT_EQ(plan.context().arena().chunks(), 1u);
  const size_t settled = plan.context().arena().capacity();
  ASSERT_TRUE(plan.ExtractAll(golden::NoiseImage(64, 48, 3, 99)).ok());
  EXPECT_EQ(plan.context().arena().capacity(), settled);
}

TEST(ExtractionPlanTest, ExtractOneRejectsUnregisteredKind) {
  std::vector<std::unique_ptr<FeatureExtractor>> owned;
  owned.push_back(MakeExtractor(FeatureKind::kColorHistogram));
  ExtractionPlan plan(Raw(owned));
  const Image img = golden::NoiseImage(32, 32, 3, 5);
  EXPECT_TRUE(plan.ExtractOne(img, FeatureKind::kGabor).status().IsInvalidArgument());
}

TEST(ExtractionPlanTest, RejectsEmptyImage) {
  const auto extractors = MakeAllExtractors();
  ExtractionPlan plan(Raw(extractors));
  EXPECT_TRUE(plan.ExtractAll(Image()).status().IsInvalidArgument());
}

TEST(ExtractionPlanTest, HistogramMatchesComputeGrayHistogram) {
  const auto extractors = MakeAllExtractors();
  ExtractionPlan plan(Raw(extractors));
  const Image img = golden::NoiseImage(50, 40, 3, 11);
  ASSERT_TRUE(plan.ExtractAll(img).ok());
  const GrayHistogram expected = ComputeGrayHistogram(ToGray(img));
  const GrayHistogram& got = plan.histogram();
  for (size_t i = 0; i < expected.bins.size(); ++i) {
    EXPECT_EQ(expected.bins[i], got.bins[i]) << "bin " << i;
  }
}

TEST(ExtractionPlanTest, TimingsCoverExtractorsAndIntermediates) {
  const auto extractors = MakeAllExtractors();
  ExtractionPlan plan(Raw(extractors));
  ExtractionPlan::FrameTimings timings;
  ASSERT_TRUE(
      plan.ExtractAll(golden::NoiseImage(120, 90, 3, 13), &timings).ok());
  // Gabor does 31 FFTs; its slot cannot plausibly be zero.
  EXPECT_GT(timings.extractor_ns[static_cast<size_t>(FeatureKind::kGabor)], 0u);
  uint64_t intermediate_total = 0;
  for (uint64_t ns : timings.intermediate_ns) intermediate_total += ns;
  EXPECT_GT(intermediate_total, 0u);
}

TEST(ExtractionPlanTest, TimingsAccumulateIntoTheCallersStruct) {
  const auto extractors = MakeAllExtractors();
  ExtractionPlan plan(Raw(extractors));
  // Every field adds to what the struct already holds, so a struct
  // passed over several frames sums them.
  constexpr uint64_t kPrior = uint64_t{1} << 50;
  ExtractionPlan::FrameTimings timings;
  timings.extractor_ns.fill(kPrior);
  timings.intermediate_ns.fill(kPrior);
  ASSERT_TRUE(
      plan.ExtractAll(golden::NoiseImage(120, 90, 3, 13), &timings).ok());
  for (uint64_t ns : timings.extractor_ns) EXPECT_GE(ns, kPrior);
  for (uint64_t ns : timings.intermediate_ns) EXPECT_GE(ns, kPrior);
  EXPECT_GT(timings.intermediate_ns[0], kPrior);  // the gray plane
}

}  // namespace
}  // namespace vr
