/// Tests for the future-work EdgeHistogram extractor.

#include <gtest/gtest.h>

#include <cmath>

#include "features/edge_histogram.h"
#include "imaging/draw.h"
#include "util/rng.h"

namespace vr {
namespace {

TEST(EdgeHistogramTest, Produces80Values) {
  Image img(64, 64, 1);
  DrawCheckerboard(&img, 4, {0, 0, 0}, {255, 255, 255});
  EdgeHistogram extractor;
  Result<FeatureVector> fv = extractor.Extract(img);
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->size(), 80u);  // 4x4 sub-images x 5 edge types
}

TEST(EdgeHistogramTest, ValuesAreFractions) {
  Image img(48, 48, 3);
  Rng rng(1);
  AddGaussianNoise(&img, 60.0, &rng);
  EdgeHistogram extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  for (double v : fv.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(EdgeHistogramTest, VerticalStripesYieldVerticalEdges) {
  // Odd period so stripe boundaries land inside the 2x2 blocks (an even
  // period would align every boundary with a block edge and produce no
  // intra-block response).
  Image img(64, 64, 1);
  DrawStripes(&img, 3, 0.0, {0, 0, 0}, {255, 255, 255});
  EdgeHistogram extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  // Per cell: type 0 (vertical) must dominate the directional types.
  for (size_t cell = 0; cell < 16; ++cell) {
    const double vertical = fv[cell * 5 + 0];
    const double horizontal = fv[cell * 5 + 1];
    EXPECT_GE(vertical, horizontal) << "cell " << cell;
  }
  double total_vertical = 0;
  for (size_t cell = 0; cell < 16; ++cell) total_vertical += fv[cell * 5];
  EXPECT_GT(total_vertical, 1.0);
}

TEST(EdgeHistogramTest, HorizontalStripesYieldHorizontalEdges) {
  Image img(64, 64, 1);
  DrawStripes(&img, 3, 90.0, {0, 0, 0}, {255, 255, 255});
  EdgeHistogram extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  double vertical = 0;
  double horizontal = 0;
  for (size_t cell = 0; cell < 16; ++cell) {
    vertical += fv[cell * 5 + 0];
    horizontal += fv[cell * 5 + 1];
  }
  EXPECT_GT(horizontal, vertical);
}

TEST(EdgeHistogramTest, FlatImageHasNoEdges) {
  Image img(64, 64, 1);
  img.Fill({128, 128, 128});
  EdgeHistogram extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  EXPECT_DOUBLE_EQ(fv.Sum(), 0.0);
}

TEST(EdgeHistogramTest, LocalizationInGrid) {
  // Edges only in the top-left quadrant: bottom-right cells stay empty.
  Image img(64, 64, 1);
  img.Fill({128, 128, 128});
  // 1-px vertical lines at odd x so the transitions land inside blocks.
  for (int x = 1; x < 30; x += 4) {
    FillRect(&img, x, 0, 1, 30, {255, 255, 255});
  }
  EdgeHistogram extractor;
  const FeatureVector fv = extractor.Extract(img).value();
  double top_left = 0;
  double bottom_right = 0;
  for (int t = 0; t < 5; ++t) {
    top_left += fv[0 * 5 + static_cast<size_t>(t)];
    bottom_right += fv[15 * 5 + static_cast<size_t>(t)];
  }
  EXPECT_GT(top_left, 0.2);
  EXPECT_DOUBLE_EQ(bottom_right, 0.0);
}

TEST(EdgeHistogramTest, RejectsDegenerateImages) {
  EdgeHistogram extractor;
  EXPECT_FALSE(extractor.Extract(Image()).ok());
  EXPECT_FALSE(extractor.Extract(Image(4, 4, 1)).ok());  // < 2 px per cell
}

}  // namespace
}  // namespace vr
