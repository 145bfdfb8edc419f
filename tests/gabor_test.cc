#include "features/gabor_texture.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "golden_features.h"
#include "imaging/draw.h"
#include "imaging/fft.h"
#include "util/rng.h"

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

TEST(GaborTest, RejectsEmptyImage) {
  GaborTexture extractor;
  EXPECT_FALSE(extractor.Extract(Image()).ok());
}

}  // namespace
}  // namespace vr
