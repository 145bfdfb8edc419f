#include "features/gabor_texture.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "features/plan/frame_context.h"
#include "imaging/color.h"
#include "imaging/fft.h"
#include "imaging/resize.h"

namespace vr {

GaborTexture::GaborTexture(int scales, int orientations, int working_size)
    : scales_(std::max(1, scales)),
      orientations_(std::max(1, orientations)),
      working_size_(static_cast<int>(
          NextPowerOfTwo(static_cast<size_t>(std::max(16, working_size))))) {}

namespace {

/// Per-plan Gabor state: the FFT twiddle/bit-reversal plan, the filter
/// bank evaluated once (one float transfer-function plane per scale and
/// orientation), and all working rasters. After the first frame,
/// extraction allocates nothing.
struct GaborScratch : PlanContext::Scratch {
  std::unique_ptr<Fft2DPlan> fft;
  std::vector<std::vector<float>> filters;  ///< [m * orientations + n]
  Image small;
  FloatImage f;
  ComplexImage spectrum;
  ComplexImage response;
  std::vector<Complex> transposed;  ///< Fft2DPlan::Run's scratch block
  std::vector<float> mags;  ///< |response| per pixel, reused per filter
};

}  // namespace

uint32_t GaborTexture::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kGray);
}

Result<FeatureVector> GaborTexture::ExtractShared(const Image& img,
                                                  PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  GaborScratch* scratch = ctx.ScratchFor<GaborScratch>(kind());
  const int ws = working_size_;
  const size_t pixels = static_cast<size_t>(ws) * ws;

  if (!scratch->fft) {
    scratch->fft = std::make_unique<Fft2DPlan>(ws, ws);
    // The filter bank: g depends only on (m, n, kx, ky), never on the
    // frame — a one-sided Gaussian around the center frequency (u0, v0),
    // evaluated in double and stored as float.
    const double f_max = 0.4;
    scratch->filters.reserve(static_cast<size_t>(scales_) * orientations_);
    for (int m = 0; m < scales_; ++m) {
      const double f0 = f_max / std::pow(std::sqrt(2.0), m);
      const double sigma_f = f0 / 2.0;
      for (int n = 0; n < orientations_; ++n) {
        const double theta = static_cast<double>(n) * M_PI / orientations_;
        const double u0 = f0 * std::cos(theta);
        const double v0 = f0 * std::sin(theta);
        std::vector<float> plane(pixels);
        for (int ky = 0; ky < ws; ++ky) {
          const double v =
              (ky < ws / 2 ? ky : ky - ws) / static_cast<double>(ws);
          for (int kx = 0; kx < ws; ++kx) {
            const double u =
                (kx < ws / 2 ? kx : kx - ws) / static_cast<double>(ws);
            const double du = u - u0;
            const double dv = v - v0;
            const double g =
                std::exp(-(du * du + dv * dv) / (2.0 * sigma_f * sigma_f));
            plane[static_cast<size_t>(ky) * ws + kx] = static_cast<float>(g);
          }
        }
        scratch->filters.push_back(std::move(plane));
      }
    }
    scratch->f = FloatImage(ws, ws);
    scratch->spectrum = ComplexImage(ws, ws);
    scratch->response = ComplexImage(ws, ws);
    scratch->mags.resize(pixels);
  }

  // Gray, fixed working size, zero-mean unit-variance, fed from the
  // shared gray plane into scratch buffers.
  ResizeInto(ctx.Gray(), ws, ws, ResizeFilter::kBilinear, &scratch->small);
  FloatImage& f = scratch->f;
  const uint8_t* gray_bytes = scratch->small.data();
  for (size_t i = 0; i < pixels; ++i) {
    f.data()[i] = static_cast<float>(gray_bytes[i]);
  }
  double mean = 0.0;
  for (float v : f.data()) mean += v;
  mean /= static_cast<double>(f.data().size());
  double var = 0.0;
  for (float v : f.data()) {
    const double d = v - mean;
    var += d * d;
  }
  var /= static_cast<double>(f.data().size());
  const double inv_std = var > 1e-12 ? 1.0 / std::sqrt(var) : 0.0;
  for (float& v : f.data()) {
    v = static_cast<float>((v - mean) * inv_std);
  }

  ComplexImage& spectrum = scratch->spectrum;
  for (size_t i = 0; i < pixels; ++i) {
    spectrum.data[i] = Complex(f.data()[i], 0.0f);
  }
  VR_RETURN_NOT_OK(scratch->fft->Run(&spectrum, /*inverse=*/false,
                                      &scratch->transposed));

  std::vector<double> feature;
  feature.reserve(dimensions());
  ComplexImage& response = scratch->response;
  std::vector<float>& mags = scratch->mags;
  const size_t bank = static_cast<size_t>(scales_) * orientations_;
  for (size_t fi = 0; fi < bank; ++fi) {
    const float* filter = scratch->filters[fi].data();
    for (size_t i = 0; i < pixels; ++i) {
      response.data[i] = spectrum.data[i] * filter[i];
    }
    VR_RETURN_NOT_OK(scratch->fft->Run(&response, /*inverse=*/true,
                                        &scratch->transposed));
    // One |.| pass feeds both the mean and the variance loop.
    for (size_t i = 0; i < pixels; ++i) {
      mags[i] = Magnitude(response.data[i]);
    }
    double mag_mean = 0.0;
    for (size_t i = 0; i < pixels; ++i) mag_mean += mags[i];
    mag_mean /= static_cast<double>(pixels);
    double mag_var = 0.0;
    for (size_t i = 0; i < pixels; ++i) {
      const double d = mags[i] - mag_mean;
      mag_var += d * d;
    }
    mag_var /= static_cast<double>(pixels);
    feature.push_back(mag_mean);
    feature.push_back(std::sqrt(mag_var));
  }
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
