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
///
/// The bank splits in two (PartBounds): the prologue resizes,
/// normalizes and transforms the frame once, and each part filters a
/// range of whole statistics groups, so a forked plan runs the two
/// halves of the bank on two threads. The filter planes and the FFT
/// plan do not depend on the frame: the extractor builds them once, on
/// first use, and every context and thread reads the same copy.
class GaborTexture : public FeatureExtractor {
 public:
  GaborTexture(int scales = 5, int orientations = 6, int working_size = 128);

  FeatureKind kind() const override { return FeatureKind::kGabor; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// Two parts of whole statistics groups (one when the bank has a
  /// single group), the first as large as the second or one group
  /// larger.
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

 private:
  /// The frame-independent half of the extraction, read-only once
  /// built: the FFT plan and one float transfer-function plane per
  /// scale and orientation (30 planes of 128 x 128, 1.9 MB at the
  /// defaults).
  struct Bank {
    explicit Bank(int ws) : fft(ws, ws) {}
    Fft2DPlan fft;
    /// [m * orientations + n], transposed: frequency (kx, ky) at
    /// kx * ws + ky, the layout Fft2DPlan::RunTransposed takes.
    std::vector<std::vector<float>> filters;
  };
  /// The bank, built by the first caller (thread-safe).
  const Bank& bank() const;

  int scales_;
  int orientations_;
  int working_size_;
  mutable std::once_flag bank_once_;
  mutable std::unique_ptr<const Bank> bank_;
};

}  // namespace vr
