/// \file edge_histogram.h
/// \brief MPEG-7-style edge histogram descriptor (extension feature).
///
/// Implements the paper's stated future work ("integrating more
/// features"): the frame is divided into a grid of sub-images, each
/// sub-image is tiled into 2x2 blocks, and every block is classified as
/// one of five edge types (vertical, horizontal, 45 deg, 135 deg,
/// non-directional) or edgeless. The feature is the per-sub-image
/// normalized count of each edge type.

#pragma once

#include "features/feature_vector.h"

namespace vr {

/// \brief Local edge-type histogram over a grid of sub-images.
class EdgeHistogram : public FeatureExtractor {
 public:
  /// \p grid: sub-images per axis (default 4 -> 16 sub-images x 5 types
  /// = 80 dims, the MPEG-7 EHD layout).
  /// \p edge_threshold: minimum filter response for a block to count as
  /// an edge at all.
  EdgeHistogram(int grid = 4, double edge_threshold = 11.0);

  FeatureKind kind() const override { return FeatureKind::kEdgeHistogram; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// Raw L1, the MPEG-7 matching measure for EHD: the canonical
  /// integer-SAD coarse kernel.
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kL1};
  }

  static constexpr int kEdgeTypes = 5;
  size_t dimensions() const {
    return static_cast<size_t>(grid_) * grid_ * kEdgeTypes;
  }

 private:
  int grid_;
  double edge_threshold_;
};

}  // namespace vr
