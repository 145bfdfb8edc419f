#include "features/gabor_texture.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "eval/corpus.h"
#include "features/plan/extraction_plan.h"
#include "golden_features.h"
#include "imaging/draw.h"
#include "imaging/fft.h"
#include "util/fork_join.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace vr {
namespace {

TEST(GaborTest, Produces60Values) {
  Image img(64, 64, 1);
  Rng rng(1);
  AddGaussianNoise(&img, 40.0, &rng);
  GaborTexture extractor;  // 5 scales x 6 orientations
  Result<FeatureVector> fv = extractor.Extract(img);
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->size(), 60u);
  EXPECT_EQ(extractor.dimensions(), 60u);
}

TEST(GaborTest, AllValuesFinite) {
  Image img(48, 48, 3);
  FillVerticalGradient(&img, {0, 0, 0}, {255, 255, 255});
  GaborTexture extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  for (double v : fv.values()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);  // magnitude statistics
  }
}

TEST(GaborTest, OrientationSelectivity) {
  // Vertical stripes: filters oriented along x (theta = 0, gradient
  // horizontal) respond more than filters at 90 degrees.
  Image vertical(64, 64, 1);
  DrawStripes(&vertical, 8, 0.0, {0, 0, 0}, {255, 255, 255});
  GaborTexture extractor(5, 6);
  const FeatureVector fv = extractor.Extract(vertical).value();
  // Aggregate mean energy per orientation across scales.
  double energy[6] = {0};
  for (int m = 0; m < 5; ++m) {
    for (int n = 0; n < 6; ++n) {
      energy[n] += fv[2 * (static_cast<size_t>(m) * 6 + n)];
    }
  }
  // Stripes along the y axis vary along x: strongest response at n=0
  // (theta 0), weakest near n=3 (theta 90 deg).
  EXPECT_GT(energy[0], energy[3] * 1.5);
}

TEST(GaborTest, RotatedStripesShiftResponse) {
  Image angled(64, 64, 1);
  DrawStripes(&angled, 8, 90.0, {0, 0, 0}, {255, 255, 255});
  GaborTexture extractor(5, 6);
  const FeatureVector fv = extractor.Extract(angled).value();
  double energy[6] = {0};
  for (int m = 0; m < 5; ++m) {
    for (int n = 0; n < 6; ++n) {
      energy[n] += fv[2 * (static_cast<size_t>(m) * 6 + n)];
    }
  }
  EXPECT_GT(energy[3], energy[0] * 1.5);
}

TEST(GaborTest, ScaleSelectivity) {
  // The energy-maximizing scale shifts coarser (higher m = lower center
  // frequency) as the stripe period grows. Working size matches the
  // image so no resampling changes the spatial frequencies.
  GaborTexture extractor(5, 6, 64);
  auto peak_scale = [&](int period) {
    Image img(64, 64, 1);
    DrawStripes(&img, period, 0.0, {0, 0, 0}, {255, 255, 255});
    const FeatureVector fv = extractor.Extract(img).value();
    int best_m = 0;
    double best_e = -1;
    for (int m = 0; m < 5; ++m) {
      double e = 0;
      for (int n = 0; n < 6; ++n) {
        e += fv[2 * (static_cast<size_t>(m) * 6 + n)];
      }
      if (e > best_e) {
        best_e = e;
        best_m = m;
      }
    }
    return best_m;
  };
  // Period 3 ~ f 0.33 (near scale 0's 0.4); period 10 ~ f 0.1 (scale 4).
  EXPECT_LT(peak_scale(3), peak_scale(10));
}

TEST(GaborTest, IlluminationInvariance) {
  // Same texture, shifted brightness: features should barely move
  // because the input is normalized to zero mean / unit variance.
  Image dark(64, 64, 1);
  DrawStripes(&dark, 8, 30.0, {20, 20, 20}, {90, 90, 90});
  Image bright(64, 64, 1);
  DrawStripes(&bright, 8, 30.0, {120, 120, 120}, {190, 190, 190});
  GaborTexture extractor;
  const FeatureVector a = extractor.Extract(dark).value();
  const FeatureVector b = extractor.Extract(bright).value();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 0.05 * std::max(1.0, a[i]));
  }
}

TEST(GaborTest, DeterministicAcrossCalls) {
  Image img(48, 48, 1);
  Rng rng(9);
  AddGaussianNoise(&img, 50.0, &rng);
  GaborTexture extractor;
  EXPECT_EQ(extractor.Extract(img).value(), extractor.Extract(img).value());
}

TEST(GaborTest, ConfigurableBankSize) {
  Image img(32, 32, 1);
  Rng rng(10);
  AddGaussianNoise(&img, 50.0, &rng);
  GaborTexture extractor(3, 4, 64);
  const FeatureVector fv = extractor.Extract(img).value();
  EXPECT_EQ(fv.size(), 24u);
}

TEST(GaborTest, KernelBuildsAgreeOnEveryGoldenFrame) {
  // Both FFT kernel builds must reproduce the golden fixture's Gabor
  // vector of every frame, and so each other, bit for bit.
  if (!fft_internal::Avx2Supported()) {
    GTEST_SKIP() << "CPU lacks AVX2: only the portable kernels can run";
  }
  auto fixture = golden::LoadFixture(VR_GOLDEN_FEATURES);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const GaborTexture extractor;
  for (const golden::Frame& frame : golden::Frames()) {
    SCOPED_TRACE(frame.name);
    const auto want = fixture->find(golden::Key(frame.name, "gabor"));
    ASSERT_NE(want, fixture->end());
    std::vector<FeatureVector> got;
    for (auto build : {fft_internal::KernelBuild::kPortable,
                       fft_internal::KernelBuild::kAvx2}) {
      fft_internal::ScopedKernelBuild pin(build);
      Result<FeatureVector> fv = extractor.Extract(frame.image);
      ASSERT_TRUE(fv.ok());
      EXPECT_EQ(golden::Mismatch(want->second, *fv), "")
          << (build == fft_internal::KernelBuild::kPortable ? "portable"
                                                             : "AVX2");
      got.push_back(std::move(*fv));
    }
    ASSERT_EQ(got[0].size(), got[1].size());
    EXPECT_EQ(std::memcmp(got[0].values().data(), got[1].values().data(),
                          got[0].size() * sizeof(double)),
              0);
  }
}

/// The frames tests/data/gabor_v1.txt names: the golden frames and the
/// 40 vr-bench query frames.
std::map<std::string, Image> ReferenceFrames() {
  std::map<std::string, Image> frames;
  for (golden::Frame& frame : golden::Frames()) {
    frames[frame.name] = std::move(frame.image);
  }
  CorpusSpec spec;
  spec.width = 128;
  spec.height = 96;
  for (int i = 0; i < 40; ++i) {
    const auto category = static_cast<VideoCategory>(i % kNumCategories);
    frames[StringPrintf("query_%02d", i)] =
        MakeQueryFrame(spec, category, static_cast<uint64_t>(i)).value();
  }
  return frames;
}

/// The largest |v - v1| / |v1| of \p extractor's values v against the
/// gabor_v1 reference, over every reference row; \p where names it.
double WorstRelativeError(const GaborTexture& extractor, std::string* where) {
  const auto reference = golden::LoadFixture(VR_GABOR_V1);
  EXPECT_TRUE(reference.ok()) << reference.status().ToString();
  if (!reference.ok()) return INFINITY;
  EXPECT_EQ(reference->size(), 47u);  // 7 golden + 40 query frames
  const std::map<std::string, Image> frames = ReferenceFrames();
  double worst = 0.0;
  for (const auto& [key, v1] : *reference) {
    const std::string frame = key.substr(0, key.find(' '));
    const FeatureVector v = extractor.Extract(frames.at(frame)).value();
    EXPECT_EQ(v.size(), v1.size()) << key;
    for (size_t i = 0; i < std::min(v.size(), v1.size()); ++i) {
      const double error = std::abs(v[i] - v1[i]) / std::abs(v1[i]);
      if (!(error <= worst)) {
        worst = error;
        *where = StringPrintf("%s dim %zu", frame.c_str(), i);
      }
    }
  }
  return worst;
}

TEST(GaborTest, StaysWithinToleranceOfTheFirstDefinition) {
  const Result<double> eps = golden::GaborTolerance(VR_GOLDEN_FEATURES);
  ASSERT_TRUE(eps.ok()) << eps.status().ToString();
  std::string where;
  const double worst = WorstRelativeError(GaborTexture(), &where);
  EXPECT_LE(worst, *eps) << "worst relative error at " << where;
}

/// The bank with the crop rule at 2.4 sigmas: scale 2 (sigma_f * ws =
/// 12.8 bins, 2.4 * 12.8 <= 32) is cropped as well, scale 1 (18.1 bins)
/// is not.
class OneScaleMoreCropped : public GaborTexture {
 public:
  OneScaleMoreCropped() : GaborTexture(5, 6, 128, 2.4) {}
};

TEST(GaborTest, ToleranceRejectsCroppingOneScaleMore) {
  // The must-fail probe of the tolerance test: a bank that crops one
  // scale more than the rule allows must break the stated bound.
  const Result<double> eps = golden::GaborTolerance(VR_GOLDEN_FEATURES);
  ASSERT_TRUE(eps.ok()) << eps.status().ToString();
  std::string where;
  EXPECT_GT(WorstRelativeError(OneScaleMoreCropped(), &where), *eps);
}

TEST(GaborTest, ForkedCostSplitHalvesEqualTheSerialBank) {
  const GaborTexture extractor;
  // 18 full-size filters and 12 cropped ones, each ~4.7x cheaper: the
  // halves split after 10 of the 30 filters by cost, not after 15.
  EXPECT_EQ(extractor.PartBounds(), (std::vector<size_t>{0, 20, 60}));
  auto fixture = golden::LoadFixture(VR_GOLDEN_FEATURES);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  ThreadPool pool(ThreadPoolOptions{.num_threads = 1});
  ForkHelpers helpers;
  helpers.pool = &pool;
  helpers.count = 1;
  ExtractionPlan forked({&extractor});
  size_t forks = 0;
  for (const golden::Frame& frame : golden::Frames()) {
    SCOPED_TRACE(frame.name);
    const FeatureVector serial = extractor.Extract(frame.image).value();
    Result<FeatureMap> got = forked.ExtractAll(frame.image, nullptr, helpers);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    forks += forked.helpers_used();
    EXPECT_EQ(golden::Mismatch(serial, got->at(FeatureKind::kGabor)), "");
    EXPECT_EQ(golden::Mismatch(fixture->at(golden::Key(frame.name, "gabor")),
                               serial),
              "");
  }
  EXPECT_GT(forks, 0u);
}

TEST(GaborTest, RejectsEmptyImage) {
  GaborTexture extractor;
  EXPECT_FALSE(extractor.Extract(Image()).ok());
}

}  // namespace
}  // namespace vr
