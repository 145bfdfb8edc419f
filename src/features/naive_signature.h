/// \file naive_signature.h
/// \brief Superficial (naive) 25-point color signature (paper §4.6).

#pragma once

#include "features/feature_vector.h"

namespace vr {

/// \brief 25 mean-color samples on a 5x5 grid over the rescaled image.
///
/// The paper rescales to 300x300 (nearest-neighbor), samples a 5x5 grid
/// of locations at {0.1, 0.3, 0.5, 0.7, 0.9} of each axis, and averages
/// a +/- sample_size window around each location in R, G, B. The feature
/// is 75 values (25 points x RGB, row-major).
///
/// The key-frame extractor (§4.1) uses this signature's distance with
/// the paper's threshold of 800.
///
/// The rescaled raster is never built: each window's cells are read
/// straight from the frame through ResizeNearestInto's index formula
/// (the identity at the base size), and the window sums are exact
/// integers, so the means are bit-identical to sampling a resampled
/// raster.
class NaiveSignature : public FeatureExtractor {
 public:
  NaiveSignature(int base_size = 300, int sample_size = 15);

  FeatureKind kind() const override { return FeatureKind::kNaiveSignature; }
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;

  /// Sum over the 25 points of the Euclidean RGB distance between the
  /// two signatures — the quantity the paper compares against 800:
  /// L2 per block of 3, integer SSD per block in code space.
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kL2Blocked, .block = 3};
  }

  static constexpr int kGrid = 5;
  static constexpr int kPoints = kGrid * kGrid;

 private:
  int base_size_;
  int sample_size_;
};

}  // namespace vr
