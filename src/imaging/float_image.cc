#include "imaging/float_image.h"

#include <algorithm>

namespace vr {

FloatImage::FloatImage(int width, int height)
    : width_(std::max(width, 0)),
      height_(std::max(height, 0)),
      data_(static_cast<size_t>(width_) * static_cast<size_t>(height_), 0.f) {}

}  // namespace vr
