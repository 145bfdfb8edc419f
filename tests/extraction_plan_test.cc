#include "features/plan/extraction_plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "golden_features.h"
#include "imaging/color.h"
#include "imaging/fft.h"
#include "imaging/histogram.h"
#include "util/fork_join.h"
#include "util/thread_pool.h"

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

/// Empty when \p got holds the same kinds as \p want, each bit for bit,
/// else the first difference as "<kind> <difference>".
std::string MapMismatch(const FeatureMap& want, const FeatureMap& got) {
  if (want.size() != got.size()) return "kind count differs";
  for (const auto& [kind, vector] : want) {
    const auto it = got.find(kind);
    if (it == got.end()) return std::string(FeatureKindName(kind)) + " missing";
    const std::string diff = golden::Mismatch(vector, it->second);
    if (!diff.empty()) return std::string(FeatureKindName(kind)) + " " + diff;
  }
  return "";
}

/// One helper thread, the fork an engine with a core to spare makes.
struct OneHelper {
  OneHelper() : pool(ThreadPoolOptions{.num_threads = 1}) {
    helpers.pool = &pool;
    helpers.count = 1;
  }
  ThreadPool pool;
  ForkHelpers helpers;
};

TEST(ExtractionPlanTest, ForkedMatchesSerialOnEveryGoldenFrame) {
  OneHelper fork;
  const auto frames = golden::Frames();
  size_t forks = 0;
  for (const auto& set : golden::ExtractorSets()) {
    ExtractionPlan serial(golden::Extractors(set));
    ExtractionPlan forked(golden::Extractors(set));
    // Two rounds: the forked plan's helper context is reused too.
    for (int round = 0; round < 2; ++round) {
      for (const golden::Frame& frame : frames) {
        SCOPED_TRACE(frame.name);
        Result<FeatureMap> want = serial.ExtractAll(frame.image);
        Result<FeatureMap> got = forked.ExtractAll(frame.image, nullptr,
                                                   fork.helpers);
        ASSERT_TRUE(want.ok() && got.ok());
        forks += forked.helpers_used();
        EXPECT_EQ(MapMismatch(*want, *got), "");
        for (const golden::Case& c : set) {
          ExpectGolden(frame, c, got->at(c.extractor->kind()));
        }
        EXPECT_EQ(serial.histogram().bins, forked.histogram().bins);
      }
    }
  }
  // Sets of one whole extractor have a single unit and never fork; the
  // full set forks on every frame.
  EXPECT_GE(forks, 2 * frames.size());
}

/// A two-part extractor that probes the fork itself. Part p writes
/// values 10p + 1 .. 10p + 4 and records the thread and FFT kernel pin
/// it ran under. Forked, part 0 waits (bounded) until part 1 has
/// started, so the two parts run on different lanes. With `bleed`,
/// part 1 also overwrites part 0's last value once part 0 is done: the
/// write into a neighbouring unit's slot that the fork must never make.
class ForkProbe : public FeatureExtractor {
 public:
  ForkProbe(bool forked, bool bleed) : forked_(forked), bleed_(bleed) {}

  FeatureKind kind() const override { return FeatureKind::kNaiveSignature; }
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override {
    return SplitExtract(img, ctx);
  }
  std::vector<size_t> PartBounds() const override { return {0, 4, 8}; }
  Status ExtractPrologue(const Image&, PlanContext&) const override {
    return Status::OK();
  }
  Status ExtractPart(size_t part, const PlanContext&, PlanContext&,
                     double* out) const override {
    if (part == 1) part1_started_.store(true);
    if (part == 0 && forked_) WaitFor(part1_started_);
    threads_[part] = std::this_thread::get_id();
    pins_[part] = fft_internal::PinnedKernels();
    for (size_t i = 0; i < 4; ++i) out[i] = 10.0 * part + i + 1;
    if (part == 0) part0_done_.store(true);
    if (part == 1 && bleed_) {
      WaitFor(part0_done_);
      out[-1] = -1.0;
    }
    return Status::OK();
  }

  std::thread::id thread(size_t part) const { return threads_[part]; }
  const fft_internal::Kernels* pin(size_t part) const { return pins_[part]; }

 private:
  static void WaitFor(const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }

  const bool forked_;
  const bool bleed_;
  mutable std::atomic<bool> part1_started_{false};
  mutable std::atomic<bool> part0_done_{false};
  mutable std::thread::id threads_[2];
  mutable const fft_internal::Kernels* pins_[2] = {};
};

TEST(ExtractionPlanTest, ForkProbeCatchesAUnitWritingItsNeighboursSlot) {
  OneHelper fork;
  const Image img = golden::NoiseImage(32, 24, 3, 7);
  ForkProbe serial_probe(/*forked=*/false, /*bleed=*/false);
  ExtractionPlan serial({&serial_probe});
  const FeatureMap want = serial.ExtractAll(img).value();
  ASSERT_EQ(want.at(FeatureKind::kNaiveSignature).values(),
            (std::vector<double>{1, 2, 3, 4, 11, 12, 13, 14}));

  // A well-behaved split forks, runs its parts on two threads and
  // matches the serial plan.
  ForkProbe clean(/*forked=*/true, /*bleed=*/false);
  ExtractionPlan clean_plan({&clean});
  const FeatureMap clean_map =
      clean_plan.ExtractAll(img, nullptr, fork.helpers).value();
  EXPECT_EQ(clean_plan.helpers_used(), 1u);
  EXPECT_NE(clean.thread(0), clean.thread(1));
  EXPECT_EQ(MapMismatch(want, clean_map), "");

  // The must-fail probe: the same fork with part 1 writing into part
  // 0's slot is caught by the comparison the golden cases use.
  ForkProbe bleeding(/*forked=*/true, /*bleed=*/true);
  ExtractionPlan bleeding_plan({&bleeding});
  const FeatureMap bled =
      bleeding_plan.ExtractAll(img, nullptr, fork.helpers).value();
  EXPECT_NE(bleeding.thread(0), bleeding.thread(1));
  EXPECT_EQ(MapMismatch(want, bled).rfind("naive dim 3:", 0), 0u)
      << MapMismatch(want, bled);
}

TEST(ExtractionPlanTest, ForkedRunsUnderTheCallersKernelPin) {
  OneHelper fork;
  // Both FFT builds compute the same bits, so comparing outputs alone
  // cannot show which build a helper ran; the probe records the pin on
  // each lane, then the full bank is compared under the same pin.
  std::vector<fft_internal::KernelBuild> builds = {
      fft_internal::KernelBuild::kPortable};
  if (fft_internal::Avx2Supported()) {
    builds.push_back(fft_internal::KernelBuild::kAvx2);
  }
  const auto extractors = MakeAllExtractors();
  for (const fft_internal::KernelBuild build : builds) {
    SCOPED_TRACE(build == fft_internal::KernelBuild::kPortable ? "portable"
                                                               : "AVX2");
    fft_internal::ScopedKernelBuild pin(build);
    const fft_internal::Kernels* pinned = fft_internal::PinnedKernels();
    ASSERT_NE(pinned, nullptr);

    ForkProbe probe(/*forked=*/true, /*bleed=*/false);
    ExtractionPlan probe_plan({&probe});
    ASSERT_TRUE(probe_plan
                    .ExtractAll(golden::NoiseImage(16, 16, 3, 1), nullptr,
                                fork.helpers)
                    .ok());
    EXPECT_NE(probe.thread(0), probe.thread(1));
    EXPECT_EQ(probe.pin(0), pinned);
    EXPECT_EQ(probe.pin(1), pinned);

    ExtractionPlan serial(Raw(extractors));
    ExtractionPlan forked(Raw(extractors));
    for (const golden::Frame& frame : golden::Frames()) {
      SCOPED_TRACE(frame.name);
      const FeatureMap want = serial.ExtractAll(frame.image).value();
      const FeatureMap got =
          forked.ExtractAll(frame.image, nullptr, fork.helpers).value();
      EXPECT_EQ(forked.helpers_used(), 1u);
      EXPECT_EQ(MapMismatch(want, got), "");
    }
  }
}

}  // namespace
}  // namespace vr
