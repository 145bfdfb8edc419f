/// \file tamura_texture.h
/// \brief Tamura texture features: coarseness, contrast, directionality.
///
/// The paper's TAMURA column stores 18 values: coarseness, contrast,
/// then a 16-bin directionality histogram.

#pragma once

#include "features/feature_vector.h"

namespace vr {

/// \brief Tamura features (Tamura, Mori & Yamawaki 1978).
///
/// Coarseness takes all its window averages from one shared
/// summed-area table, built once per frame with the same double sums
/// NeighborhoodAverage builds per window size, so every average is the
/// same float. Its scan reads interior pixels directly and clamps only
/// within a window of the border, keeping the float differences, the
/// ascending-scale strict comparison and the summation order; the
/// Sobel planes and scratch rasters persist in per-kind scratch. The
/// output is bit-identical to the per-window, clamped-read version the
/// golden fixture was recorded from.
class TamuraTexture : public FeatureExtractor {
 public:
  /// \p max_scale bounds the coarseness window at 2^max_scale pixels;
  /// \p dir_bins is the directionality histogram size;
  /// \p dir_threshold drops near-flat gradients from the histogram.
  TamuraTexture(int max_scale = 5, int dir_bins = 16,
                double dir_threshold = 12.0);

  FeatureKind kind() const override { return FeatureKind::kTamura; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// Canberra over coarseness & contrast (scale-free) plus an L1 tail
  /// over the normalized directionality histogram, each component
  /// [0, 1]-ish and weighted equally. A vector shorter than kDirStart
  /// takes the default L2 instead, and the coarse stage never prepares
  /// such a query.
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kCanberraL1,
            .canberra_end = kDirStart,
            .l1_tail = true};
  }

  enum : size_t {
    kCoarseness = 0,
    kContrast = 1,
    kDirStart = 2,
  };

 private:
  int max_scale_;
  int dir_bins_;
  double dir_threshold_;
};

}  // namespace vr
