/// \file gabor_texture.h
/// \brief Gabor filter-bank texture feature (paper §4.4).

#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "features/feature_vector.h"
#include "imaging/fft.h"

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
/// This is the second definition of the bank (stored as `FEAT_gabor2`,
/// see FeatureColumnName). It reproduces the first within a stated
/// tolerance rather than bit for bit:
///  - **Crop.** A filter whose Gaussian fits a half-size window, that is
///    kCropSigmas * sigma_f * ws <= ws / 4 bins, is filtered on the
///    (ws/2)^2 window of the spectrum centred on its centre bin
///    (u0 * ws, v0 * ws), wrapping at the spectrum's edges. Bin k of the
///    window lands at k mod (ws/2), so one half-size inverse transform
///    yields the full-size response at every second pixel of each axis,
///    times 4: the statistics run over those samples and are scaled by
///    1/4 (a power of two, so exactly). The rule depends on sigma_f, not
///    on a scale index: at the defaults sigma_f * ws is 25.6, 18.1,
///    12.8, 9.05 and 6.4 bins, so scales 3 and 4 (12 of the 30 filters)
///    are cropped. What a crop loses is the Gaussian's tail past the
///    window and the samples between the kept ones.
///  - **Float |.|.** Magnitude() (imaging/fft.h) is the float sqrt of the
///    float sum of squares, 8 lanes wide on AVX2.
///  - **Lane-split statistics.** One pass over each response's |.|
///    sums the magnitudes and their squares, each in 8 double
///    accumulators (lane j takes samples j, j + 8, ...), combined in a
///    fixed order; the std is sqrt(E[m^2] - mean^2).
///
/// Tolerance: over the golden-fixture frames and the 40 vr-bench query
/// frames every value is within a relative 5e-3 of the first definition
/// (measured worst case 3.85e-3; cropping scale 2 as well reaches
/// 9.3e-3). tests/data/golden_features.txt pins the second definition
/// bit for bit and states the bound, tests/data/gabor_v1.txt keeps the
/// first, and gabor_test checks the bound and that cropping one scale
/// more breaks it.
///
/// Within this definition every bit is fixed: the spectrum and the
/// filter planes are kept transposed, the layout
/// Fft2DPlan::RunTransposed takes; the transforms, the transposes and
/// |.| run on the FFT kernel build picked for the CPU (portable, or
/// AVX2 without FMA), which compute the same bits; the statistics'
/// association is fixed by the source.
///
/// The bank splits in two (PartBounds) at the filter that best halves
/// the transform cost: the prologue resizes, normalizes and transforms
/// the frame once, and each part filters a range of filters, so a forked
/// plan runs the two halves of the bank on two threads. The filter
/// planes and the FFT plans do not depend on the frame: the extractor
/// builds them once, on first use, and every context and thread reads
/// the same copy.
class GaborTexture : public FeatureExtractor {
 public:
  GaborTexture(int scales = 5, int orientations = 6, int working_size = 128);

  /// A filter is cropped when kCropSigmas of its sigma_f fit in a
  /// quarter of the working size (the half-width of the crop window).
  static constexpr double kCropSigmas = 3.5;

  FeatureKind kind() const override { return FeatureKind::kGabor; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// Two ranges of whole filters, split where the two halves' transform
  /// cost (size^2 log2 size^2 per filter) is closest to equal; one
  /// range when the bank has a single filter.
  std::vector<size_t> PartBounds() const override;
  Status ExtractPrologue(const Image& img, PlanContext& ctx) const override;
  Status ExtractPart(size_t part, const PlanContext& prologue,
                     PlanContext& ctx, double* out) const override;
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

 protected:
  /// For the tolerance test's must-fail probe only: the bank with the
  /// crop rule at \p crop_sigmas instead of kCropSigmas.
  GaborTexture(int scales, int orientations, int working_size,
               double crop_sigmas);

 private:
  /// One filter of the bank: its transfer function on the size x size
  /// window that starts at bin (kx0, ky0), transposed (bin (kx, ky) at
  /// (kx mod size) * size + ky mod size, the layout
  /// Fft2DPlan::RunTransposed takes). A full-size filter has size ws and
  /// starts at (0, 0); a cropped one has size ws / 2.
  struct Filter {
    int size = 0;
    int kx0 = 0;
    int ky0 = 0;
    std::vector<float> plane;
  };
  /// The frame-independent half of the extraction, read-only once
  /// built: the FFT plans and the filters (1.3 MB at the defaults).
  struct Bank {
    explicit Bank(int ws) : fft(ws, ws), crop_fft(ws / 2, ws / 2) {}
    Fft2DPlan fft;
    Fft2DPlan crop_fft;
    /// [m * orientations + n]
    std::vector<Filter> filters;
  };
  /// The bank, built by the first caller (thread-safe).
  const Bank& bank() const;

  int scales_;
  int orientations_;
  int working_size_;
  double crop_sigmas_;
  mutable std::once_flag bank_once_;
  mutable std::unique_ptr<const Bank> bank_;
};

}  // namespace vr
