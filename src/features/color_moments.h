/// \file color_moments.h
/// \brief HSV color moments (extension feature).
///
/// Stricker & Orengo's compact color descriptor: mean, standard
/// deviation and cube-root skewness of each HSV channel — 9 values.
/// Part of the paper's future-work feature set.

#pragma once

#include "features/feature_vector.h"

namespace vr {

/// \brief First three moments of each HSV channel.
class ColorMoments : public FeatureExtractor {
 public:
  ColorMoments() = default;

  FeatureKind kind() const override { return FeatureKind::kColorMoments; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// L1 with the hue-mean circle wrap on element 0.
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kL1, .wrap_dim0 = true};
  }

  /// Layout: [mean_h, std_h, skew_h, mean_s, ..., skew_v].
  static constexpr size_t kDims = 9;
};

}  // namespace vr
