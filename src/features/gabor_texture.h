/// \file gabor_texture.h
/// \brief Gabor filter-bank texture feature (paper §4.4).

#pragma once

#include "features/feature_vector.h"

namespace vr {

/// \brief Mean/std of Gabor filter responses over M scales x N orientations.
///
/// The paper's feature is 60 values: for each of M=5 scales and N=6
/// orientations, the mean and the standard deviation of the filter
/// response magnitude. Filtering runs in the frequency domain: the gray
/// image is resized to a power-of-two raster, FFT'd once, each filter is
/// an analytic (one-sided) Gaussian in frequency space, and one inverse
/// FFT per filter yields the complex response. The input is normalized to
/// zero mean / unit variance first, for illumination invariance.
///
/// The output is pinned bit for bit by the golden-feature fixture, and
/// the bank is fast only through steps that cannot move a bit:
///  - The spectrum and the filter planes are kept transposed, so each
///    filter product is already in the layout
///    Fft2DPlan::RunTransposed takes; the product of each frequency is
///    the same multiply wherever it is stored.
///  - The transforms, the transposes and |.| run on the FFT kernel
///    build picked for the CPU (imaging/fft.h: portable, or AVX2
///    without FMA), which computes the same bits.
///  - The statistics of three filters run interleaved: their
///    magnitudes go to three planes, then one loop carries the three
///    means' accumulators and a second the three variances'. Each
///    accumulator still adds its own plane in pixel order, so the sums
///    round exactly as one filter at a time would; the interleaving
///    only hides the latency of each chain's adds behind the others.
class GaborTexture : public FeatureExtractor {
 public:
  GaborTexture(int scales = 5, int orientations = 6, int working_size = 128);

  FeatureKind kind() const override { return FeatureKind::kGabor; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// Plain L2: block 0 = one block over the whole vector, evaluated
  /// as the default distance (tail mass on a length mismatch).
  /// Length-mismatched rows are forced by the kernel, which covers the
  /// tail-mass terms.
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kL2Blocked};
  }

  int scales() const { return scales_; }
  int orientations() const { return orientations_; }
  /// Feature dimensionality = 2 * scales * orientations.
  size_t dimensions() const {
    return 2 * static_cast<size_t>(scales_) * orientations_;
  }

 private:
  int scales_;
  int orientations_;
  int working_size_;
};

}  // namespace vr
