/// \file filter.h
/// \brief Spatial filtering: Sobel gradients and box averages.

#pragma once

#include <vector>

#include "imaging/float_image.h"

namespace vr {

/// \brief Per-pixel gradient from the Sobel operator.
struct GradientField {
  FloatImage dx;
  FloatImage dy;
  FloatImage magnitude;
};

/// Computes the Sobel gradients of \p img into \p out (edge pixels use
/// clamped reads), reusing its planes when the geometry matches.
void SobelInto(const FloatImage& img, GradientField* out);

/// \brief Summed-area table of a float raster: At(x, y) is the double
/// sum over [0, x) x [0, y). One table serves every
/// NeighborhoodAverageInto window size of its raster.
class SummedAreaTable {
 public:
  /// Rebuilds the table over \p img, reusing the buffer.
  void Build(const FloatImage& img);

  int width() const { return width_; }
  int height() const { return height_; }
  double At(int x, int y) const {
    return sums_[static_cast<size_t>(y) * (width_ + 1) + x];
  }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<double> sums_;  ///< (width + 1) x (height + 1), row-major
};

/// Box-filter mean of the (2^k x 2^k) neighborhood around each pixel of
/// the raster \p sat was built over, as used by Tamura coarseness, into
/// \p out (re-sized only when its geometry differs). \p k is the log2
/// window size.
void NeighborhoodAverageInto(const SummedAreaTable& sat, int k,
                             FloatImage* out);

}  // namespace vr
