/// \file histogram.h
/// \brief Gray-level histograms.

#pragma once

#include <array>
#include <cstdint>

#include "imaging/image.h"

namespace vr {

/// \brief 256-bin gray-level histogram.
struct GrayHistogram {
  std::array<uint64_t, 256> bins{};

  /// Total mass (= number of pixels counted).
  uint64_t Total() const;

  /// Sum of bins[lo..hi] inclusive.
  uint64_t MassInRange(int lo, int hi) const;

  /// Mean gray level; 0 when empty.
  double Mean() const;

  /// Gray-level variance; 0 when empty.
  double Variance() const;
};

/// Computes the gray-level histogram of \p img (RGB converted via BT.601).
GrayHistogram ComputeGrayHistogram(const Image& img);

}  // namespace vr
