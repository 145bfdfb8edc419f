#include "imaging/image.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "imaging/color.h"
#include "imaging/ppm.h"

namespace vr {
namespace {

TEST(ImageTest, ConstructionZeroFills) {
  Image img(4, 3, 3);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.SizeBytes(), 36u);
  EXPECT_EQ(img.At(2, 1, 1), 0);
  EXPECT_FALSE(img.empty());
}

TEST(ImageTest, EmptyImage) {
  Image img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.PixelCount(), 0u);
}

TEST(ImageTest, FromDataValidatesSize) {
  EXPECT_TRUE(Image::FromData(2, 2, 1, std::vector<uint8_t>(4)).ok());
  EXPECT_FALSE(Image::FromData(2, 2, 1, std::vector<uint8_t>(5)).ok());
  EXPECT_FALSE(Image::FromData(2, 2, 2, std::vector<uint8_t>(8)).ok());
  EXPECT_FALSE(Image::FromData(-1, 2, 1, {}).ok());
}

TEST(ImageTest, PixelRoundTripRgb) {
  Image img(3, 3, 3);
  img.SetPixel(1, 2, {10, 20, 30});
  EXPECT_EQ(img.PixelRgb(1, 2), (Rgb{10, 20, 30}));
}

TEST(ImageTest, GraySetPixelStoresLuma) {
  Image img(2, 2, 1);
  img.SetPixel(0, 0, {255, 255, 255});
  EXPECT_EQ(img.At(0, 0), 255);
  img.SetPixel(0, 0, {0, 0, 0});
  EXPECT_EQ(img.At(0, 0), 0);
  img.SetPixel(0, 0, {255, 0, 0});  // 0.299 * 255 ~ 76
  EXPECT_NEAR(img.At(0, 0), 76, 1);
}

TEST(ImageTest, GrayPixelRgbReplicates) {
  Image img(1, 1, 1);
  img.At(0, 0) = 99;
  EXPECT_EQ(img.PixelRgb(0, 0), (Rgb{99, 99, 99}));
}

TEST(ImageTest, FillSetsEveryPixel) {
  Image img(5, 4, 3);
  img.Fill({1, 2, 3});
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) {
      EXPECT_EQ(img.PixelRgb(x, y), (Rgb{1, 2, 3}));
    }
  }
}

TEST(ImageTest, ContainsChecksBounds) {
  Image img(3, 2, 1);
  EXPECT_TRUE(img.Contains(0, 0));
  EXPECT_TRUE(img.Contains(2, 1));
  EXPECT_FALSE(img.Contains(3, 0));
  EXPECT_FALSE(img.Contains(0, 2));
  EXPECT_FALSE(img.Contains(-1, 0));
}

TEST(ImageTest, CropExtractsRegion) {
  Image img(4, 4, 3);
  img.SetPixel(2, 2, {9, 9, 9});
  Image crop = img.Crop(1, 1, 2, 2);
  EXPECT_EQ(crop.width(), 2);
  EXPECT_EQ(crop.height(), 2);
  EXPECT_EQ(crop.PixelRgb(1, 1), (Rgb{9, 9, 9}));
}

TEST(ImageTest, CropClampsToBounds) {
  Image img(4, 4, 1);
  Image crop = img.Crop(2, 2, 10, 10);
  EXPECT_EQ(crop.width(), 2);
  EXPECT_EQ(crop.height(), 2);
  Image empty = img.Crop(5, 5, 2, 2);
  EXPECT_TRUE(empty.empty());
}

TEST(PnmTest, EncodeDecodeRoundTripRgb) {
  Image img(7, 5, 3);
  img.SetPixel(3, 2, {200, 100, 50});
  img.SetPixel(0, 0, {1, 2, 3});
  Result<Image> back = DecodePnm(EncodePnm(img));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, img);
}

TEST(PnmTest, EncodeDecodeRoundTripGray) {
  Image img(3, 3, 1);
  img.At(1, 1) = 128;
  Result<Image> back = DecodePnm(EncodePnm(img));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, img);
}

TEST(PnmTest, DecodeAsciiP2) {
  Result<Image> img = DecodePnm("P2\n# comment\n2 2\n255\n0 64 128 255\n");
  ASSERT_TRUE(img.ok()) << img.status();
  EXPECT_EQ(img->At(0, 0), 0);
  EXPECT_EQ(img->At(1, 1), 255);
}

TEST(PnmTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodePnm("not a pnm").ok());
  EXPECT_FALSE(DecodePnm("P6\n2 2\n255\nxx").ok());  // truncated raster
  EXPECT_FALSE(DecodePnm("P6\n-3 2\n255\n").ok());
}

TEST(PnmTest, FileRoundTrip) {
  Image img(8, 6, 3);
  img.Fill({12, 34, 56});
  const std::string path = testing::TempDir() + "/pnm_roundtrip.ppm";
  ASSERT_TRUE(WritePnm(img, path).ok());
  Result<Image> back = ReadPnm(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, img);
}

TEST(ColorTest, RgbHsvRoundTrip) {
  for (Rgb c : {Rgb{255, 0, 0}, Rgb{0, 255, 0}, Rgb{0, 0, 255},
                Rgb{128, 128, 128}, Rgb{10, 200, 150}, Rgb{255, 255, 255}}) {
    const Hsv hsv = RgbToHsv(c);
    const Rgb back = HsvToRgb(hsv);
    EXPECT_NEAR(back.r, c.r, 2);
    EXPECT_NEAR(back.g, c.g, 2);
    EXPECT_NEAR(back.b, c.b, 2);
  }
}

TEST(ColorTest, HsvValuesForPrimaries) {
  const Hsv red = RgbToHsv({255, 0, 0});
  EXPECT_NEAR(red.h, 0.0, 1e-9);
  EXPECT_NEAR(red.s, 1.0, 1e-9);
  EXPECT_NEAR(red.v, 1.0, 1e-9);
  const Hsv green = RgbToHsv({0, 255, 0});
  EXPECT_NEAR(green.h, 120.0, 1e-9);
  const Hsv blue = RgbToHsv({0, 0, 255});
  EXPECT_NEAR(blue.h, 240.0, 1e-9);
}

TEST(ColorTest, GrayHasZeroSaturation) {
  const Hsv gray = RgbToHsv({77, 77, 77});
  EXPECT_DOUBLE_EQ(gray.s, 0.0);
}

TEST(ColorTest, QuantizeHsvCoversRange) {
  int mn = 999;
  int mx = -1;
  for (int r = 0; r < 256; r += 17) {
    for (int g = 0; g < 256; g += 17) {
      for (int b = 0; b < 256; b += 17) {
        const int q = QuantizeHsv(RgbToHsv({static_cast<uint8_t>(r),
                                            static_cast<uint8_t>(g),
                                            static_cast<uint8_t>(b)}));
        mn = std::min(mn, q);
        mx = std::max(mx, q);
      }
    }
  }
  EXPECT_GE(mn, 0);
  EXPECT_LT(mx, kHsvQuantBins);
}

TEST(ColorTest, ToGrayMatchesLuma) {
  Image img(1, 1, 3);
  img.SetPixel(0, 0, {255, 255, 255});
  EXPECT_EQ(ToGray(img).At(0, 0), 255);
  img.SetPixel(0, 0, {0, 0, 255});  // 0.114 * 255 ~ 29
  EXPECT_NEAR(ToGray(img).At(0, 0), 29, 1);
}

TEST(ColorTest, RgbToGrayMatchesTheRoundedLumaOnEveryTriple) {
  // The luma expression RgbToGray's tables replace, rounded as before.
  const auto reference = [](int r, int g, int b) {
    return static_cast<uint8_t>(std::lround(0.299 * r + 0.587 * g + 0.114 * b));
  };
  std::vector<uint8_t> rgb(3 * 256 * 256);
  std::vector<uint8_t> plane(256 * 256);
  size_t mismatches = 0;
  for (int r = 0; r < 256; ++r) {
    for (int g = 0; g < 256; ++g) {
      for (int b = 0; b < 256; ++b) {
        const size_t i = static_cast<size_t>(g) * 256 + b;
        rgb[3 * i] = static_cast<uint8_t>(r);
        rgb[3 * i + 1] = static_cast<uint8_t>(g);
        rgb[3 * i + 2] = static_cast<uint8_t>(b);
      }
    }
    RgbToGrayPlane(rgb.data(), plane.size(), plane.data());
    for (int g = 0; g < 256; ++g) {
      for (int b = 0; b < 256; ++b) {
        const uint8_t want = reference(r, g, b);
        const Rgb pixel{static_cast<uint8_t>(r), static_cast<uint8_t>(g),
                        static_cast<uint8_t>(b)};
        const uint8_t got_plane = plane[static_cast<size_t>(g) * 256 + b];
        if (RgbToGray(pixel) != want || got_plane != want) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << "(" << r << ", " << g << ", " << b
                          << "): want " << int{want} << ", RgbToGray "
                          << int{RgbToGray(pixel)} << ", plane "
                          << int{got_plane};
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ColorTest, ToRgbReplicatesGray) {
  Image gray(2, 1, 1);
  gray.At(0, 0) = 50;
  const Image rgb = ToRgb(gray);
  EXPECT_EQ(rgb.channels(), 3);
  EXPECT_EQ(rgb.PixelRgb(0, 0), (Rgb{50, 50, 50}));
}

}  // namespace
}  // namespace vr
