#include "imaging/color.h"

#include <algorithm>
#include <cmath>

namespace vr {

Hsv RgbToHsv(Rgb rgb) {
  const double r = rgb.r / 255.0;
  const double g = rgb.g / 255.0;
  const double b = rgb.b / 255.0;
  const double mx = std::max({r, g, b});
  const double mn = std::min({r, g, b});
  const double d = mx - mn;

  Hsv out;
  out.v = mx;
  out.s = mx > 0 ? d / mx : 0.0;
  if (d <= 0.0) {
    out.h = 0.0;
  } else if (mx == r) {
    out.h = 60.0 * std::fmod((g - b) / d, 6.0);
  } else if (mx == g) {
    out.h = 60.0 * ((b - r) / d + 2.0);
  } else {
    out.h = 60.0 * ((r - g) / d + 4.0);
  }
  if (out.h < 0) out.h += 360.0;
  return out;
}

Rgb HsvToRgb(const Hsv& hsv) {
  const double c = hsv.v * hsv.s;
  const double hp = std::clamp(hsv.h, 0.0, 359.999999) / 60.0;
  const double x = c * (1.0 - std::fabs(std::fmod(hp, 2.0) - 1.0));
  double r = 0, g = 0, b = 0;
  switch (static_cast<int>(hp)) {
    case 0: r = c; g = x; break;
    case 1: r = x; g = c; break;
    case 2: g = c; b = x; break;
    case 3: g = x; b = c; break;
    case 4: r = x; b = c; break;
    default: r = c; b = x; break;
  }
  const double m = hsv.v - c;
  auto to8 = [&](double v) {
    return static_cast<uint8_t>(std::lround(std::clamp(v + m, 0.0, 1.0) * 255.0));
  };
  return {to8(r), to8(g), to8(b)};
}

namespace {

/// c * i for every byte i, each the same double product the luma
/// expression forms.
struct LumaTable {
  double v[256];
};
constexpr LumaTable MakeLumaTable(double c) {
  LumaTable t{};
  for (int i = 0; i < 256; ++i) t.v[i] = c * i;
  return t;
}
constexpr LumaTable kLumaR = MakeLumaTable(0.299);
constexpr LumaTable kLumaG = MakeLumaTable(0.587);
constexpr LumaTable kLumaB = MakeLumaTable(0.114);

}  // namespace

uint8_t RgbToGray(Rgb rgb) {
  const double luma = kLumaR.v[rgb.r] + kLumaG.v[rgb.g] + kLumaB.v[rgb.b];
  return static_cast<uint8_t>(static_cast<int>(luma + 0.5));
}

void RgbToGrayPlane(const uint8_t* rgb, size_t pixels, uint8_t* gray) {
  for (size_t i = 0; i < pixels; ++i, rgb += 3) {
    gray[i] = RgbToGray({rgb[0], rgb[1], rgb[2]});
  }
}

Image ToGray(const Image& img) {
  if (img.channels() == 1) return img;
  Image out(img.width(), img.height(), 1);
  RgbToGrayPlane(img.data(), img.PixelCount(), out.data());
  return out;
}

Image ToRgb(const Image& img) {
  if (img.channels() == 3) return img;
  Image out(img.width(), img.height(), 3);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      out.SetPixel(x, y, img.PixelRgb(x, y));
    }
  }
  return out;
}

int QuantizeHsv(const Hsv& hsv) {
  int h = std::min(15, static_cast<int>(hsv.h / 22.5));
  int s = std::min(3, static_cast<int>(hsv.s * 4.0));
  int v = std::min(3, static_cast<int>(hsv.v * 4.0));
  return (h << 4) | (s << 2) | v;
}

}  // namespace vr
