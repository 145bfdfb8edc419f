/// \file region_growing.h
/// \brief Simple region growing segmentation feature (paper §4.8).

#pragma once

#include "features/feature_vector.h"
#include "imaging/image.h"

namespace vr {

/// \brief Connected-component statistics after the paper's preprocessing.
struct RegionStats {
  int num_regions = 0;       ///< all connected components (fg + bg)
  int num_holes = 0;         ///< background (0-valued) components
  int num_major_regions = 0; ///< components covering >= the major fraction
};

/// \brief Stack-based region growing over the binarized frame.
///
/// Preprocessing follows the paper: gray conversion (their
/// {0.114, 0.587, 0.299} band combine), binarization at the
/// minimum-fuzziness (Huang) threshold, then dilate / erode / erode /
/// dilate with the 3x3-ones-in-5x5 kernel. Labeling grows 8-connected
/// regions of equal binary value; components of zeros count as holes.
///
/// The kernel's members are a filled 3x3 rectangle, so each morphology
/// step is a separable 3-tap row pass and column pass (a box's max or
/// min is the max or min of its rows' maxima or minima): the same bytes
/// as testing all 25 window cells per pixel. In the fused path the
/// binary plane, the pass scratch and the labels live in the frame
/// arena.
class SimpleRegionGrowing : public FeatureExtractor {
 public:
  /// \p major_fraction: a region is "major" when it covers at least this
  /// fraction of the frame (the paper reports "no. of max regions").
  explicit SimpleRegionGrowing(double major_fraction = 0.01);

  FeatureKind kind() const override { return FeatureKind::kRegionGrowing; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// Canberra over the whole vector (the defaulted range clamps to the
  /// common length): counts live on very different scales (regions can
  /// reach hundreds while major regions stay in single digits).
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kCanberraL1};
  }

  /// Runs preprocessing + labeling and returns the raw statistics.
  Result<RegionStats> Analyze(const Image& img) const;

  /// The preprocessed binary image (for tests and the inspector example).
  Result<Image> Preprocess(const Image& img) const;

  enum : size_t {
    kNumRegions = 0,
    kNumHoles = 1,
    kMajorRegions = 2,
  };

 private:
  /// Trivially-copyable grow-stack element (arena-allocatable).
  struct Pt {
    int x;
    int y;
  };

  /// Connected-component labeling over the row-major \p w x \p h plane
  /// \p binary. \p labels must be a zero-initialized w*h buffer
  /// (0 = unlabeled; regions number from 1) and \p stack a w*h scratch
  /// buffer (each pixel is pushed at most once). Analyze and
  /// ExtractShared both funnel here, so the paths are bit-identical by
  /// construction.
  RegionStats LabelRegions(const uint8_t* binary, int w, int h, int* labels,
                           Pt* stack) const;

  double major_fraction_;
};

}  // namespace vr
