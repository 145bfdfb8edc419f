#include "features/auto_correlogram.h"

#include <gtest/gtest.h>

#include "imaging/color.h"
#include "imaging/draw.h"
#include "util/rng.h"

namespace vr {
namespace {

TEST(CorrelogramTest, DimensionsMatchBinsTimesDistance) {
  Image img(32, 32, 3);
  img.Fill({120, 60, 30});
  AutoColorCorrelogram extractor(4);
  Result<FeatureVector> fv = extractor.Extract(img);
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->size(), static_cast<size_t>(kHsvQuantBins) * 4);
}

TEST(CorrelogramTest, SolidColorHasProbabilityOne) {
  Image img(16, 16, 3);
  img.Fill({200, 40, 40});
  AutoColorCorrelogram extractor(3);
  const FeatureVector fv = extractor.Extract(img).value();
  const int bin = QuantizeHsv(RgbToHsv({200, 40, 40}));
  for (int d = 0; d < 3; ++d) {
    EXPECT_DOUBLE_EQ(fv[static_cast<size_t>(bin) * 3 + d], 1.0);
  }
  // Every other entry is zero.
  double total = 0;
  for (double v : fv.values()) total += v;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(CorrelogramTest, ValuesAreProbabilities) {
  Image img(24, 24, 3);
  Rng rng(1);
  AddGaussianNoise(&img, 90.0, &rng);
  AutoColorCorrelogram extractor(4);
  const FeatureVector fv = extractor.Extract(img).value();
  for (double v : fv.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(CorrelogramTest, CapturesSpatialStructureHistogramMisses) {
  // Two images with identical color histograms but different layout:
  // big blocks vs a fine checkerboard of the same two colors.
  Image blocks(32, 32, 3);
  FillRect(&blocks, 0, 0, 16, 32, {255, 0, 0});
  FillRect(&blocks, 16, 0, 16, 32, {0, 0, 255});
  Image checker(32, 32, 3);
  DrawCheckerboard(&checker, 1, {255, 0, 0}, {0, 0, 255});

  AutoColorCorrelogram extractor(2);
  const FeatureVector f_blocks = extractor.Extract(blocks).value();
  const FeatureVector f_checker = extractor.Extract(checker).value();
  // Same-color neighbor probability at distance 1 is near 1 for blocks
  // and near 0.5 for the checkerboard (the chessboard ring's four
  // diagonal neighbors share the color, its four edge neighbors do not).
  const int red = QuantizeHsv(RgbToHsv({255, 0, 0}));
  EXPECT_GT(f_blocks[static_cast<size_t>(red) * 2], 0.8);
  EXPECT_LT(f_checker[static_cast<size_t>(red) * 2], 0.6);
  EXPECT_GT(extractor.Distance(f_blocks, f_checker), 0.1);
}

TEST(CorrelogramTest, NarrowFrameTakesTheClippedPathEverywhere) {
  // 4x2 frame at max_distance 2: no pixel is 2 away from every edge.
  //   R R B R
  //   B R R R
  // Distance 1: the six red pixels see 3 + 5 + 3 + 5 + 5 + 3 = 24
  // in-frame neighbors, 2 + 3 + 2 + 3 + 4 + 2 = 16 of them red; the two
  // blue pixels see 5 + 3 neighbors, none blue. Distance 2 lies two
  // columns over: red sees 12 cells, 1 + 2 + 2 + 2 + 1 + 2 = 10 red;
  // blue sees 4 cells, 1 + 1 blue.
  const Rgb red{255, 0, 0};
  const Rgb blue{0, 0, 255};
  Image img(4, 2, 3);
  img.Fill(red);
  img.SetPixel(2, 0, blue);
  img.SetPixel(0, 1, blue);
  AutoColorCorrelogram extractor(2);
  const FeatureVector fv = extractor.Extract(img).value();
  const size_t r = static_cast<size_t>(QuantizeHsv(RgbToHsv(red))) * 2;
  const size_t b = static_cast<size_t>(QuantizeHsv(RgbToHsv(blue))) * 2;
  ASSERT_NE(r, b);
  EXPECT_EQ(fv[r], 16.0 / 24.0);
  EXPECT_EQ(fv[r + 1], 10.0 / 12.0);
  EXPECT_EQ(fv[b], 0.0);
  EXPECT_EQ(fv[b + 1], 2.0 / 4.0);
  for (size_t i = 0; i < fv.size(); ++i) {
    if (i != r && i != r + 1 && i != b && i != b + 1) {
      EXPECT_EQ(fv[i], 0.0) << "dim " << i;
    }
  }
}

TEST(CorrelogramTest, DistanceZeroOnSelf) {
  Image img(20, 20, 3);
  Rng rng(2);
  AddGaussianNoise(&img, 60.0, &rng);
  AutoColorCorrelogram extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  EXPECT_DOUBLE_EQ(extractor.Distance(fv, fv), 0.0);
}

TEST(CorrelogramTest, MaxDistanceClamped) {
  AutoColorCorrelogram extractor(100);
  EXPECT_LE(extractor.max_distance(), 16);
  AutoColorCorrelogram extractor0(0);
  EXPECT_GE(extractor0.max_distance(), 1);
}

TEST(CorrelogramTest, LargeImagesDownscaled) {
  Image img(500, 300, 3);
  img.Fill({10, 200, 10});
  AutoColorCorrelogram extractor(4);
  Result<FeatureVector> fv = extractor.Extract(img);
  ASSERT_TRUE(fv.ok());
}

TEST(CorrelogramTest, RejectsEmptyImage) {
  AutoColorCorrelogram extractor;
  EXPECT_FALSE(extractor.Extract(Image()).ok());
}

}  // namespace
}  // namespace vr
