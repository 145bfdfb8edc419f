/// \file float_image.h
/// \brief Single-channel float raster, used by filtering and Gabor code.

#pragma once

#include <vector>

#include "imaging/image.h"

namespace vr {

/// \brief Row-major single-channel float image.
class FloatImage {
 public:
  FloatImage() = default;

  /// Zero-filled float raster.
  FloatImage(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  float At(int x, int y) const {
    return data_[static_cast<size_t>(y) * width_ + x];
  }
  float& At(int x, int y) {
    return data_[static_cast<size_t>(y) * width_ + x];
  }

  const std::vector<float>& data() const { return data_; }
  std::vector<float>& data() { return data_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<float> data_;
};

}  // namespace vr
