#include "imaging/float_image.h"

#include <algorithm>

namespace vr {

FloatImage::FloatImage(int width, int height)
    : width_(std::max(width, 0)),
      height_(std::max(height, 0)),
      data_(static_cast<size_t>(width_) * static_cast<size_t>(height_), 0.f) {}

FloatImage FloatImage::FromImage(const Image& img) {
  FloatImage out(img.width(), img.height());
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (img.channels() == 1) {
        out.At(x, y) = static_cast<float>(img.At(x, y));
      } else {
        const Rgb p = img.PixelRgb(x, y);
        out.At(x, y) =
            0.299f * p.r + 0.587f * p.g + 0.114f * p.b;
      }
    }
  }
  return out;
}

float FloatImage::AtClamped(int x, int y) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return At(x, y);
}

}  // namespace vr
