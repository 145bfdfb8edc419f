#include "features/color_histogram.h"

#include <gtest/gtest.h>

#include <numeric>

#include "imaging/draw.h"
#include "util/rng.h"

namespace vr {
namespace {

TEST(ColorHistogramTest, BinsSumToPixelCount) {
  Image img(20, 10, 3);
  Rng rng(1);
  AddGaussianNoise(&img, 80.0, &rng);
  SimpleColorHistogram extractor;
  Result<FeatureVector> fv = extractor.Extract(img);
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->size(), 256u);
  EXPECT_DOUBLE_EQ(
      std::accumulate(fv->values().begin(), fv->values().end(), 0.0), 200.0);
}

TEST(ColorHistogramTest, SolidColorConcentratesInOneBin) {
  Image img(8, 8, 3);
  img.Fill({200, 10, 60});
  SimpleColorHistogram extractor;
  Result<FeatureVector> fv = extractor.Extract(img);
  ASSERT_TRUE(fv.ok());
  int nonzero = 0;
  for (double v : fv->values()) {
    if (v > 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(ColorHistogramTest, RejectsEmptyImage) {
  SimpleColorHistogram extractor;
  EXPECT_FALSE(extractor.Extract(Image()).ok());
}

TEST(ColorHistogramTest, DistanceZeroForIdenticalImages) {
  Image img(16, 16, 3);
  Rng rng(2);
  AddGaussianNoise(&img, 60.0, &rng);
  SimpleColorHistogram extractor;
  const FeatureVector a = extractor.Extract(img).value();
  const FeatureVector b = extractor.Extract(img).value();
  EXPECT_DOUBLE_EQ(extractor.Distance(a, b), 0.0);
}

TEST(ColorHistogramTest, DistanceScaleInvariant) {
  // Same content at two sizes: normalized histograms should be close.
  Image small(16, 16, 3);
  small.Fill({50, 100, 150});
  FillRect(&small, 0, 0, 8, 16, {250, 20, 20});
  Image large(64, 64, 3);
  large.Fill({50, 100, 150});
  FillRect(&large, 0, 0, 32, 64, {250, 20, 20});
  SimpleColorHistogram extractor;
  const FeatureVector a = extractor.Extract(small).value();
  const FeatureVector b = extractor.Extract(large).value();
  EXPECT_NEAR(extractor.Distance(a, b), 0.0, 1e-9);
}

TEST(ColorHistogramTest, DistanceSeparatesDifferentPalettes) {
  Image red(16, 16, 3);
  red.Fill({220, 30, 30});
  Image blue(16, 16, 3);
  blue.Fill({30, 30, 220});
  SimpleColorHistogram extractor;
  const FeatureVector a = extractor.Extract(red).value();
  const FeatureVector b = extractor.Extract(blue).value();
  EXPECT_NEAR(extractor.Distance(a, b), 2.0, 1e-9);  // disjoint bins
}

TEST(ColorHistogramTest, DistanceBounded) {
  Rng rng(3);
  SimpleColorHistogram extractor;
  for (int trial = 0; trial < 5; ++trial) {
    Image a(12, 12, 3);
    Image b(12, 12, 3);
    AddGaussianNoise(&a, 90.0, &rng);
    AddGaussianNoise(&b, 90.0, &rng);
    const double d = extractor.Distance(extractor.Extract(a).value(),
                                        extractor.Extract(b).value());
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 2.0);
  }
}

TEST(ColorHistogramTest, GraySpaceUsesLuma) {
  Image img(4, 4, 3);
  img.Fill({255, 255, 255});
  SimpleColorHistogram extractor(HistogramSpace::kGray256);
  const FeatureVector fv = extractor.Extract(img).value();
  EXPECT_DOUBLE_EQ(fv[255], 16.0);
}

TEST(ColorHistogramTest, HsvSpaceQuantizes) {
  Image img(4, 4, 3);
  img.Fill({255, 0, 0});
  SimpleColorHistogram extractor(HistogramSpace::kHsv256);
  const FeatureVector fv = extractor.Extract(img).value();
  EXPECT_DOUBLE_EQ(
      std::accumulate(fv.values().begin(), fv.values().end(), 0.0), 16.0);
  int nonzero = 0;
  for (double v : fv.values()) {
    if (v > 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(ColorHistogramTest, QuantizerStaysInRange) {
  SimpleColorHistogram rgb(HistogramSpace::kRgb256);
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const Rgb p{static_cast<uint8_t>(rng.UniformInt(0, 255)),
                static_cast<uint8_t>(rng.UniformInt(0, 255)),
                static_cast<uint8_t>(rng.UniformInt(0, 255))};
    const int q = rgb.Quantize(p);
    EXPECT_GE(q, 0);
    EXPECT_LT(q, 256);
  }
}

}  // namespace
}  // namespace vr
