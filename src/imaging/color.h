/// \file color.h
/// \brief Color-space conversions (RGB <-> HSV, RGB -> gray).

#pragma once

#include <cstddef>

#include "imaging/image.h"

namespace vr {

/// \brief HSV triple: h in [0, 360), s and v in [0, 1].
struct Hsv {
  double h = 0.0;
  double s = 0.0;
  double v = 0.0;
};

/// Converts one RGB pixel to HSV.
Hsv RgbToHsv(Rgb rgb);

/// Converts one HSV triple back to RGB.
Rgb HsvToRgb(const Hsv& hsv);

/// BT.601 luma of an RGB pixel, rounded to [0, 255]: lround of
/// 0.299 r + 0.587 g + 0.114 b in double. The three products come from
/// tables and are summed in the expression's order, so the sum has the
/// same bits; it lies in [0, 255], where truncating sum + 0.5 rounds as
/// lround does. A test checks every one of the 2^24 triples.
uint8_t RgbToGray(Rgb rgb);

/// RgbToGray of \p pixels interleaved RGB pixels into \p gray.
void RgbToGrayPlane(const uint8_t* rgb, size_t pixels, uint8_t* gray);

/// Converts any image to single-channel gray (BT.601). Gray input is copied.
Image ToGray(const Image& img);

/// Converts a gray image to 3-channel RGB by channel replication;
/// RGB input is copied.
Image ToRgb(const Image& img);

/// Quantizes an HSV pixel into one of 16*4*4 = 256 bins
/// (16 hue x 4 saturation x 4 value), in [0, 255].
/// This is the quantizer the auto color correlogram uses (the paper's
/// correlogram is 256-bin).
int QuantizeHsv(const Hsv& hsv);

/// Number of bins QuantizeHsv produces.
inline constexpr int kHsvQuantBins = 256;

}  // namespace vr
