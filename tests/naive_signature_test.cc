#include "features/naive_signature.h"

#include <gtest/gtest.h>

#include "imaging/draw.h"
#include "util/rng.h"

namespace vr {
namespace {

TEST(NaiveSignatureTest, Produces75Values) {
  Image img(40, 30, 3);
  img.Fill({10, 20, 30});
  NaiveSignature extractor;
  Result<FeatureVector> fv = extractor.Extract(img);
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->size(), 75u);  // 25 points x RGB
}

TEST(NaiveSignatureTest, SolidColorGivesThatColorEverywhere) {
  Image img(64, 64, 3);
  img.Fill({50, 100, 150});
  NaiveSignature extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  for (size_t p = 0; p < 25; ++p) {
    EXPECT_NEAR(fv[3 * p], 50.0, 1.0);
    EXPECT_NEAR(fv[3 * p + 1], 100.0, 1.0);
    EXPECT_NEAR(fv[3 * p + 2], 150.0, 1.0);
  }
}

TEST(NaiveSignatureTest, SpatialLayoutReflected) {
  // Top half red, bottom half blue: first-row samples red, last-row blue.
  Image img(60, 60, 3);
  FillRect(&img, 0, 0, 60, 30, {255, 0, 0});
  FillRect(&img, 0, 30, 60, 30, {0, 0, 255});
  NaiveSignature extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  EXPECT_GT(fv[0], 200.0);       // top-left point red channel
  EXPECT_LT(fv[2], 50.0);        // top-left point blue channel
  const size_t last_row = 3 * 20;  // point (0, 4) in the 5x5 grid
  EXPECT_LT(fv[last_row], 50.0);
  EXPECT_GT(fv[last_row + 2], 200.0);
}

TEST(NaiveSignatureTest, DistanceZeroOnSelf) {
  Image img(32, 32, 3);
  Rng rng(1);
  AddGaussianNoise(&img, 60.0, &rng);
  NaiveSignature extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  EXPECT_DOUBLE_EQ(extractor.Distance(fv, fv), 0.0);
}

TEST(NaiveSignatureTest, PaperThresholdSeparatesScenesNotNoise) {
  // The paper's key-frame rule: consecutive frames of the same scene are
  // within 800; a hard cut exceeds it.
  Image scene_a(80, 60, 3);
  scene_a.Fill({60, 120, 70});
  FillCircle(&scene_a, 40, 30, 12, {220, 40, 40});
  Image scene_a_jittered = scene_a;
  Rng rng(2);
  AddGaussianNoise(&scene_a_jittered, 4.0, &rng);
  Image scene_b(80, 60, 3);
  scene_b.Fill({230, 230, 240});
  FillRect(&scene_b, 10, 10, 40, 30, {20, 20, 90});

  NaiveSignature extractor;
  const FeatureVector a = extractor.Extract(scene_a).value();
  const FeatureVector aj = extractor.Extract(scene_a_jittered).value();
  const FeatureVector b = extractor.Extract(scene_b).value();
  EXPECT_LT(extractor.Distance(a, aj), 800.0);
  EXPECT_GT(extractor.Distance(a, b), 800.0);
}

TEST(NaiveSignatureTest, TriangleInequalityHolds) {
  // Sum of per-point Euclidean distances is a metric.
  Rng rng(3);
  NaiveSignature extractor;
  for (int trial = 0; trial < 3; ++trial) {
    Image x(20, 20, 3);
    Image y(20, 20, 3);
    Image z(20, 20, 3);
    AddGaussianNoise(&x, 80.0, &rng);
    AddGaussianNoise(&y, 80.0, &rng);
    AddGaussianNoise(&z, 80.0, &rng);
    const FeatureVector fx = extractor.Extract(x).value();
    const FeatureVector fy = extractor.Extract(y).value();
    const FeatureVector fz = extractor.Extract(z).value();
    EXPECT_LE(extractor.Distance(fx, fz),
              extractor.Distance(fx, fy) + extractor.Distance(fy, fz) + 1e-9);
  }
}

TEST(NaiveSignatureTest, SizeInvariantViaRescale) {
  Image small(30, 30, 3);
  FillRect(&small, 0, 0, 15, 30, {255, 255, 255});
  Image large(300, 300, 3);
  FillRect(&large, 0, 0, 150, 300, {255, 255, 255});
  NaiveSignature extractor;
  const FeatureVector a = extractor.Extract(small).value();
  const FeatureVector b = extractor.Extract(large).value();
  EXPECT_LT(extractor.Distance(a, b), 100.0);
}

TEST(NaiveSignatureTest, BaseSizeFrameIsSampledInPlace) {
  // A 300x300 frame is its own rescale, so the centre-column windows
  // [135, 165) hold column 135 (red) and column 164 (green) but not
  // column 165 (blue): 30 of their 900 cells add 255 to R, 30 to G.
  Image img(300, 300, 3);
  FillRect(&img, 135, 0, 1, 300, {255, 0, 0});
  FillRect(&img, 164, 0, 1, 300, {0, 255, 0});
  FillRect(&img, 165, 0, 1, 300, {0, 0, 255});
  NaiveSignature extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  for (int gy = 0; gy < NaiveSignature::kGrid; ++gy) {
    for (int gx = 0; gx < NaiveSignature::kGrid; ++gx) {
      const size_t p = 3 * static_cast<size_t>(gy * NaiveSignature::kGrid + gx);
      const double want = gx == 2 ? 30.0 * 255.0 / 900.0 : 0.0;
      EXPECT_EQ(fv[p], want) << gx << "," << gy;
      EXPECT_EQ(fv[p + 1], want) << gx << "," << gy;
      EXPECT_EQ(fv[p + 2], 0.0) << gx << "," << gy;
    }
  }
}

TEST(NaiveSignatureTest, OnePixelFrameFillsEveryPoint) {
  Image rgb(1, 1, 3);
  rgb.SetPixel(0, 0, {10, 20, 30});
  Image gray(1, 1, 1);
  gray.At(0, 0) = 77;
  NaiveSignature extractor;
  const FeatureVector a = extractor.Extract(rgb).value();
  const FeatureVector b = extractor.Extract(gray).value();
  for (size_t p = 0; p < NaiveSignature::kPoints; ++p) {
    EXPECT_EQ(a[3 * p], 10.0);
    EXPECT_EQ(a[3 * p + 1], 20.0);
    EXPECT_EQ(a[3 * p + 2], 30.0);
    EXPECT_EQ(b[3 * p], 77.0);
    EXPECT_EQ(b[3 * p + 1], 77.0);
    EXPECT_EQ(b[3 * p + 2], 77.0);
  }
}

TEST(NaiveSignatureTest, RejectsEmptyImage) {
  NaiveSignature extractor;
  EXPECT_FALSE(extractor.Extract(Image()).ok());
}

}  // namespace
}  // namespace vr
