#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "imaging/draw.h"
#include "imaging/filter.h"
#include "imaging/histogram.h"
#include "imaging/morphology.h"
#include "imaging/resize.h"
#include "imaging/threshold.h"

namespace vr {
namespace {

TEST(ResizeTest, PreservesSolidColor) {
  Image img(10, 10, 3);
  img.Fill({40, 80, 120});
  for (ResizeFilter f : {ResizeFilter::kNearest, ResizeFilter::kBilinear}) {
    const Image out = Resize(img, 23, 17, f);
    EXPECT_EQ(out.width(), 23);
    EXPECT_EQ(out.height(), 17);
    EXPECT_EQ(out.PixelRgb(11, 8), (Rgb{40, 80, 120}));
    EXPECT_EQ(out.PixelRgb(0, 0), (Rgb{40, 80, 120}));
  }
}

TEST(ResizeTest, IdentityWhenSameSize) {
  Image img(5, 5, 1);
  img.At(2, 2) = 77;
  EXPECT_EQ(Resize(img, 5, 5), img);
}

TEST(ResizeTest, EmptyInputsYieldEmpty) {
  EXPECT_TRUE(Resize(Image(), 10, 10).empty());
  Image img(5, 5, 1);
  EXPECT_TRUE(Resize(img, 0, 10).empty());
}

TEST(ResizeTest, DownscaleAveragesBilinear) {
  // Left half black, right half white; downscaled center pixel must be
  // intermediate under bilinear.
  Image img(100, 10, 1);
  for (int y = 0; y < 10; ++y) {
    for (int x = 50; x < 100; ++x) img.At(x, y) = 255;
  }
  const Image out = Resize(img, 10, 10, ResizeFilter::kBilinear);
  EXPECT_EQ(out.At(0, 5), 0);
  EXPECT_EQ(out.At(9, 5), 255);
}

TEST(HistogramTest, CountsAllPixels) {
  Image img(8, 8, 1);
  img.Fill({100, 100, 100});
  const GrayHistogram h = ComputeGrayHistogram(img);
  EXPECT_EQ(h.Total(), 64u);
  EXPECT_EQ(h.bins[100], 64u);
  EXPECT_DOUBLE_EQ(h.Mean(), 100.0);
  EXPECT_DOUBLE_EQ(h.Variance(), 0.0);
}

TEST(HistogramTest, MassInRangeClampsAndSums) {
  Image img(4, 1, 1);
  img.At(0, 0) = 0;
  img.At(1, 0) = 10;
  img.At(2, 0) = 200;
  img.At(3, 0) = 255;
  const GrayHistogram h = ComputeGrayHistogram(img);
  EXPECT_EQ(h.MassInRange(0, 255), 4u);
  EXPECT_EQ(h.MassInRange(0, 10), 2u);
  EXPECT_EQ(h.MassInRange(-5, 300), 4u);
  EXPECT_EQ(h.MassInRange(11, 199), 0u);
}

TEST(FilterTest, SobelDetectsVerticalEdge) {
  FloatImage img(10, 10);
  for (int y = 0; y < 10; ++y) {
    for (int x = 5; x < 10; ++x) img.At(x, y) = 255.f;
  }
  GradientField g;
  SobelInto(img, &g);
  EXPECT_GT(std::abs(g.dx.At(5, 5)), 100.f);
  EXPECT_NEAR(g.dy.At(5, 5), 0.f, 1e-3);
  EXPECT_GT(g.magnitude.At(5, 5), 100.f);
  EXPECT_NEAR(g.magnitude.At(2, 5), 0.f, 1e-3);
}

TEST(FilterTest, NeighborhoodAverageOfConstant) {
  FloatImage img(12, 12);
  for (auto& v : img.data()) v = 7.f;
  SummedAreaTable sat;
  sat.Build(img);
  for (int k = 1; k <= 3; ++k) {
    FloatImage avg;
    NeighborhoodAverageInto(sat, k, &avg);
    EXPECT_NEAR(avg.At(6, 6), 7.f, 1e-4);
    EXPECT_NEAR(avg.At(0, 0), 7.f, 1e-4);
  }
}

TEST(MorphologyTest, DilateGrowsErodeShrinks) {
  Image img(9, 9, 1);
  img.At(4, 4) = 255;
  const StructuringElement box = Box3x3();
  const Image dilated = Dilate(img, box);
  int on = 0;
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 9; ++x) {
      if (dilated.At(x, y) != 0) ++on;
    }
  }
  EXPECT_EQ(on, 9);  // 3x3 block
  const Image eroded = Erode(dilated, box);
  int on2 = 0;
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 9; ++x) {
      if (eroded.At(x, y) != 0) ++on2;
    }
  }
  EXPECT_EQ(on2, 1);
  EXPECT_NE(eroded.At(4, 4), 0);
}

TEST(MorphologyTest, OpenRemovesSpeckles) {
  Image img(20, 20, 1);
  // One isolated pixel and one 5x5 block.
  img.At(2, 2) = 255;
  for (int y = 10; y < 15; ++y) {
    for (int x = 10; x < 15; ++x) img.At(x, y) = 255;
  }
  const Image opened = Open(img, Box3x3());
  EXPECT_EQ(opened.At(2, 2), 0);       // speckle gone
  EXPECT_NE(opened.At(12, 12), 0);     // block core survives
}

TEST(MorphologyTest, PaperKernelShape) {
  const StructuringElement k = PaperKernel5x5();
  EXPECT_EQ(k.width, 5);
  EXPECT_EQ(k.height, 5);
  EXPECT_FALSE(k.At(0, 0));
  EXPECT_TRUE(k.At(2, 2));
  EXPECT_TRUE(k.At(1, 1));
  EXPECT_FALSE(k.At(4, 2));
}

/// A 1-channel raster from rows of '0' / '1' (1 -> 255).
Image Raster(const std::vector<std::string>& rows) {
  Image img(static_cast<int>(rows[0].size()), static_cast<int>(rows.size()),
            1);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      img.At(x, y) = rows[static_cast<size_t>(y)][static_cast<size_t>(x)] ==
                             '1'
                         ? 255
                         : 0;
    }
  }
  return img;
}

/// The rows of a 0 / 255 raster as '0' / '1' strings; any other byte
/// shows as '?'.
std::vector<std::string> Rows(const Image& img) {
  std::vector<std::string> rows;
  for (int y = 0; y < img.height(); ++y) {
    std::string row;
    for (int x = 0; x < img.width(); ++x) {
      const uint8_t v = img.At(x, y);
      row += v == 0 ? '0' : v == 255 ? '1' : '?';
    }
    rows.push_back(row);
  }
  return rows;
}

/// Both shipped kernels have the same 3x3 member rectangle, so they
/// must give the same hand-derived bytes.
std::vector<StructuringElement> ShippedKernels() {
  return {PaperKernel5x5(), Box3x3()};
}

TEST(MorphologyTest, TinyRastersReadOutsideAsBackground) {
  for (const StructuringElement& se : ShippedKernels()) {
    SCOPED_TRACE(se.width);
    // 1x1: a set pixel survives dilation but not erosion (its
    // neighbors lie outside the raster).
    EXPECT_EQ(Rows(Dilate(Raster({"1"}), se)), Rows(Raster({"1"})));
    EXPECT_EQ(Rows(Erode(Raster({"1"}), se)), Rows(Raster({"0"})));
    EXPECT_EQ(Rows(Dilate(Raster({"0"}), se)), Rows(Raster({"0"})));
    // 1 wide x 5 tall.
    const Image column = Raster({"0", "0", "1", "0", "0"});
    EXPECT_EQ(Rows(Dilate(column, se)),
              Rows(Raster({"0", "1", "1", "1", "0"})));
    EXPECT_EQ(Rows(Erode(Raster({"1", "1", "1", "1", "1"}), se)),
              Rows(Raster({"0", "0", "0", "0", "0"})));
    // 5 wide x 1 tall.
    EXPECT_EQ(Rows(Dilate(Raster({"10000"}), se)), Rows(Raster({"11000"})));
    EXPECT_EQ(Rows(Dilate(Raster({"00001"}), se)), Rows(Raster({"00011"})));
    EXPECT_EQ(Rows(Erode(Raster({"11111"}), se)), Rows(Raster({"00000"})));
    // 3x3: only the center sees nine set cells.
    const Image full = Raster({"111", "111", "111"});
    EXPECT_EQ(Rows(Erode(full, se)), Rows(Raster({"000", "010", "000"})));
    EXPECT_EQ(Rows(Dilate(Raster({"000", "010", "000"}), se)), Rows(full));
    EXPECT_EQ(Rows(Dilate(Raster({"100", "000", "000"}), se)),
              Rows(Raster({"110", "110", "000"})));
  }
}

TEST(MorphologyTest, SetPixelOnEachEdge) {
  for (const StructuringElement& se : ShippedKernels()) {
    SCOPED_TRACE(se.width);
    EXPECT_EQ(Rows(Dilate(Raster({"00000", "00000", "10000", "00000"}), se)),
              Rows(Raster({"00000", "11000", "11000", "11000"})));
    EXPECT_EQ(Rows(Dilate(Raster({"00100", "00000", "00000", "00000"}), se)),
              Rows(Raster({"01110", "01110", "00000", "00000"})));
    EXPECT_EQ(Rows(Dilate(Raster({"00000", "00001", "00000", "00000"}), se)),
              Rows(Raster({"00011", "00011", "00011", "00000"})));
    EXPECT_EQ(Rows(Dilate(Raster({"00000", "00000", "00000", "01000"}), se)),
              Rows(Raster({"00000", "00000", "11100", "11100"})));
    EXPECT_EQ(Rows(Dilate(Raster({"00000", "00000", "00000", "00001"}), se)),
              Rows(Raster({"00000", "00000", "00011", "00011"})));
    // Erosion clears the whole border ring of a full raster, and a
    // hole next to an edge clears its 3x3 neighborhood.
    EXPECT_EQ(Rows(Erode(Raster({"11111", "11111", "11111", "11111"}), se)),
              Rows(Raster({"00000", "01110", "01110", "00000"})));
    EXPECT_EQ(Rows(Erode(Raster({"111111", "111111", "111111", "111110",
                                 "111111"}),
                         se)),
              Rows(Raster({"000000", "011110", "011100", "011100",
                           "000000"})));
  }
}

TEST(MorphologyTest, NonzeroInputCountsAsSet) {
  Image img = Raster({"000", "000", "000"});
  img.At(1, 1) = 7;
  EXPECT_EQ(Rows(Dilate(img, Box3x3())), Rows(Raster({"111", "111", "111"})));
}

TEST(MorphologyTest, OffCenterRectangleShiftsTheWindow) {
  // Members at columns 2..3 of a 4-wide element: offsets 0 and +1 from
  // its center column 2, so dilation grows one pixel to the left.
  StructuringElement se;
  se.width = 4;
  se.height = 1;
  se.mask = {0, 0, 1, 1};
  EXPECT_EQ(Rows(Dilate(Raster({"00100"}), se)), Rows(Raster({"01100"})));
  EXPECT_EQ(Rows(Erode(Raster({"01110"}), se)), Rows(Raster({"01100"})));
}

TEST(MorphologyDeathTest, MaskMustBeAFilledRectangle) {
  StructuringElement cross;
  cross.width = 3;
  cross.height = 3;
  cross.mask = {0, 1, 0, 1, 1, 1, 0, 1, 0};
  StructuringElement empty;
  empty.width = 3;
  empty.height = 3;
  empty.mask.assign(9, 0);
  const Image img = Raster({"010", "111", "010"});
  EXPECT_DEATH((void)Dilate(img, cross), "not one filled rectangle");
  EXPECT_DEATH((void)Erode(img, cross), "not one filled rectangle");
  EXPECT_DEATH((void)Dilate(img, empty), "not one filled rectangle");
}

TEST(ThresholdTest, HuangSeparatesBimodal) {
  Image img(10, 10, 1);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      img.At(x, y) = (y < 4) ? 40 : 200;
    }
  }
  const int t = MinFuzzinessThreshold(ComputeGrayHistogram(img));
  EXPECT_GE(t, 40);
  EXPECT_LT(t, 200);
}

TEST(ThresholdTest, HuangSparseTwoLevelPicksLowerLevel) {
  // Two gray levels, 40 and 200, and nothing between. At t = 40 each
  // class is one level equal to its mean, so every membership is 1 and
  // the fuzzy entropy is 0. Every t in (40, 200) has an empty bin and
  // the same two classes, so it ties; only a strictly lower entropy
  // replaces the best, which leaves t = 40.
  GrayHistogram hist;
  hist.bins[40] = 30;
  hist.bins[200] = 70;
  EXPECT_EQ(MinFuzzinessThreshold(hist), 40);
}

TEST(DrawTest, FillRectClips) {
  Image img(10, 10, 3);
  FillRect(&img, 8, 8, 5, 5, {255, 0, 0});
  EXPECT_EQ(img.PixelRgb(9, 9), (Rgb{255, 0, 0}));
  EXPECT_EQ(img.PixelRgb(7, 7), (Rgb{0, 0, 0}));
}

TEST(DrawTest, FillCircleRadius) {
  Image img(21, 21, 1);
  FillCircle(&img, 10, 10, 5, {255, 255, 255});
  EXPECT_NE(img.At(10, 10), 0);
  EXPECT_NE(img.At(10, 15), 0);
  EXPECT_EQ(img.At(10, 16), 0);
  EXPECT_EQ(img.At(0, 0), 0);
}

TEST(DrawTest, DrawLineEndpoints) {
  Image img(10, 10, 1);
  DrawLine(&img, 0, 0, 9, 9, {255, 255, 255});
  EXPECT_NE(img.At(0, 0), 0);
  EXPECT_NE(img.At(9, 9), 0);
  EXPECT_NE(img.At(5, 5), 0);
}

TEST(DrawTest, GradientEndsMatch) {
  Image img(4, 16, 3);
  FillVerticalGradient(&img, {0, 0, 0}, {200, 100, 50});
  EXPECT_EQ(img.PixelRgb(0, 0), (Rgb{0, 0, 0}));
  EXPECT_EQ(img.PixelRgb(0, 15), (Rgb{200, 100, 50}));
  const Rgb mid = img.PixelRgb(0, 8);
  EXPECT_GT(mid.r, 50);
  EXPECT_LT(mid.r, 150);
}

TEST(DrawTest, CheckerboardAlternates) {
  Image img(8, 8, 1);
  DrawCheckerboard(&img, 2, {0, 0, 0}, {255, 255, 255});
  EXPECT_EQ(img.At(0, 0), 0);
  EXPECT_EQ(img.At(2, 0), 255);
  EXPECT_EQ(img.At(2, 2), 0);
}

TEST(DrawTest, NoiseChangesPixelsDeterministically) {
  Image a(16, 16, 3);
  a.Fill({128, 128, 128});
  Image b = a;
  Rng r1(42);
  Rng r2(42);
  AddGaussianNoise(&a, 10.0, &r1);
  AddGaussianNoise(&b, 10.0, &r2);
  EXPECT_EQ(a, b);
  Image c(16, 16, 3);
  c.Fill({128, 128, 128});
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace vr
