/// \file auto_correlogram.h
/// \brief Auto color correlogram feature (paper §4.7).

#pragma once

#include "features/feature_vector.h"

namespace vr {

/// \brief Auto color correlogram (Huang et al. 1997).
///
/// Colors are quantized in HSV space into 256 bins (16 hue x 4 sat x
/// 4 val, as in the paper's pseudo-code). For each color c and each
/// chessboard distance d in [1, max_distance], the feature stores the
/// probability that a pixel at distance d from a pixel of color c also
/// has color c. Layout: [c0d1..c0dD, c1d1..c1dD, ...], 256 * D values.
///
/// Counting is exact integer arithmetic, which is order-free: a
/// same-color pair at offset o is the same pair at -o, so each ring is
/// scanned over half its offsets (byte compares over the quantized
/// plane) and counted twice, and each pixel's in-frame ring size comes
/// from clipped box areas instead of a visit to every cell. Both counts
/// are the integers a cell-by-cell visit produces, so every ratio is
/// bit-identical to it.
class AutoColorCorrelogram : public FeatureExtractor {
 public:
  explicit AutoColorCorrelogram(int max_distance = 4);

  FeatureKind kind() const override { return FeatureKind::kAutoCorrelogram; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// The d1 measure of Huang et al., sum |a-b| / (1 + a + b). d1 is
  /// 2-Lipschitz per element over the non-negative probabilities this
  /// extractor produces, giving a row-independent error bound.
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kD1};
  }

  int max_distance() const { return max_distance_; }

 private:
  int max_distance_;
};

}  // namespace vr
