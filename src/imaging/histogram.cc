#include "imaging/histogram.h"

#include <algorithm>

#include "imaging/color.h"

namespace vr {

uint64_t GrayHistogram::Total() const {
  uint64_t t = 0;
  for (uint64_t b : bins) t += b;
  return t;
}

uint64_t GrayHistogram::MassInRange(int lo, int hi) const {
  lo = std::clamp(lo, 0, 255);
  hi = std::clamp(hi, 0, 255);
  uint64_t t = 0;
  for (int i = lo; i <= hi; ++i) t += bins[static_cast<size_t>(i)];
  return t;
}

double GrayHistogram::Mean() const {
  const uint64_t total = Total();
  if (total == 0) return 0.0;
  double sum = 0.0;
  for (int i = 0; i < 256; ++i) {
    sum += static_cast<double>(i) * static_cast<double>(bins[static_cast<size_t>(i)]);
  }
  return sum / static_cast<double>(total);
}

double GrayHistogram::Variance() const {
  const uint64_t total = Total();
  if (total == 0) return 0.0;
  const double mean = Mean();
  double acc = 0.0;
  for (int i = 0; i < 256; ++i) {
    const double d = i - mean;
    acc += d * d * static_cast<double>(bins[static_cast<size_t>(i)]);
  }
  return acc / static_cast<double>(total);
}

GrayHistogram ComputeGrayHistogram(const Image& img) {
  GrayHistogram h;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const uint8_t g = img.channels() == 1 ? img.At(x, y)
                                            : RgbToGray(img.PixelRgb(x, y));
      ++h.bins[g];
    }
  }
  return h;
}

}  // namespace vr
