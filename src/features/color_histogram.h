/// \file color_histogram.h
/// \brief Simple color histogram (paper §4.5, the SCH column).

#pragma once

#include "features/feature_vector.h"

namespace vr {

/// Quantization used by SimpleColorHistogram.
enum class HistogramSpace {
  /// 256-bin quantized RGB: 8 levels R x 8 levels G x 4 levels B.
  /// This matches the paper's 256-value "RGB 256" output string.
  kRgb256,
  /// 256-bin gray-level histogram.
  kGray256,
  /// 256-bin quantized HSV (16 x 4 x 4).
  kHsv256,
};

/// \brief The paper's simple color histogram feature.
///
/// The color space is quantized into a finite number of discrete levels
/// and each level becomes a bin; the histogram counts pixels per bin
/// (§4.5). Distances are L1 over L1-normalized histograms so image size
/// does not matter.
class SimpleColorHistogram : public FeatureExtractor {
 public:
  explicit SimpleColorHistogram(HistogramSpace space = HistogramSpace::kRgb256)
      : space_(space) {}

  FeatureKind kind() const override { return FeatureKind::kColorHistogram; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// L1 over L1-normalized histograms, in [0, 2]. The metric
  /// normalizes both sides per call, so the coarse kernel reconstructs
  /// each row's sum from its code sum.
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kNormalizedL1};
  }

  HistogramSpace space() const { return space_; }

  /// Bin index of one pixel under the configured quantization.
  int Quantize(Rgb pixel) const;

 private:
  HistogramSpace space_;
};

}  // namespace vr
