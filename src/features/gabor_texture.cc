#include "features/gabor_texture.h"

#include <algorithm>
#include <array>
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

/// Filters whose statistics run interleaved: one accumulator chain per
/// filter, so the adds of different filters overlap in the pipeline.
constexpr size_t kStatGroup = 3;

/// Per-plan Gabor state: the FFT twiddle/bit-reversal plan, the filter
/// bank evaluated once (one float transfer-function plane per scale and
/// orientation), and all working rasters. After the first frame,
/// extraction allocates nothing.
struct GaborScratch : PlanContext::Scratch {
  std::unique_ptr<Fft2DPlan> fft;
  /// [m * orientations + n], transposed: frequency (kx, ky) at
  /// kx * ws + ky, the layout Fft2DPlan::RunTransposed takes.
  std::vector<std::vector<float>> filters;
  Image small;
  FloatImage f;
  std::vector<Complex> spectrum;  ///< the frame's transform, transposed
  ComplexImage response;
  std::vector<Complex> transposed;  ///< filter product / FFT scratch
  /// |response| of each filter of a statistics group.
  std::array<std::vector<float>, kStatGroup> mags;
};

/// Appends the mean and the standard deviation of each of the G planes
/// in \p mags (each \p pixels long) to \p feature, plane by plane.
/// Each plane's sums run in pixel order, exactly as one plane at a time
/// would; the G chains only share the loop.
template <size_t G>
void AppendPlaneStats(const std::array<std::vector<float>, kStatGroup>& mags,
                      size_t pixels, std::vector<double>* feature) {
  const double n = static_cast<double>(pixels);
  double mean[G] = {};
  for (size_t i = 0; i < pixels; ++i) {
    for (size_t g = 0; g < G; ++g) mean[g] += mags[g][i];
  }
  for (size_t g = 0; g < G; ++g) mean[g] /= n;
  double var[G] = {};
  for (size_t i = 0; i < pixels; ++i) {
    for (size_t g = 0; g < G; ++g) {
      const double d = mags[g][i] - mean[g];
      var[g] += d * d;
    }
  }
  for (size_t g = 0; g < G; ++g) {
    feature->push_back(mean[g]);
    feature->push_back(std::sqrt(var[g] / n));
  }
}

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
            plane[static_cast<size_t>(kx) * ws + ky] = static_cast<float>(g);
          }
        }
        scratch->filters.push_back(std::move(plane));
      }
    }
    scratch->f = FloatImage(ws, ws);
    scratch->spectrum.resize(pixels);
    scratch->response = ComplexImage(ws, ws);
    scratch->transposed.resize(pixels);
    for (std::vector<float>& plane : scratch->mags) plane.resize(pixels);
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

  // The forward transform runs in `response`; the bank reads it
  // transposed, like the filters, so each product is already laid out
  // for RunTransposed and no filter pays Run's first transpose.
  ComplexImage& response = scratch->response;
  for (size_t i = 0; i < pixels; ++i) {
    response.data[i] = Complex(f.data()[i], 0.0f);
  }
  VR_RETURN_NOT_OK(scratch->fft->Run(&response, /*inverse=*/false,
                                      &scratch->transposed));
  const Complex* spectrum = scratch->spectrum.data();
  Transpose(response.data.data(), ws, ws, scratch->spectrum.data());

  std::vector<double> feature;
  feature.reserve(dimensions());
  Complex* product = scratch->transposed.data();
  const size_t bank = static_cast<size_t>(scales_) * orientations_;
  for (size_t first = 0; first < bank; first += kStatGroup) {
    const size_t group = std::min(kStatGroup, bank - first);
    for (size_t g = 0; g < group; ++g) {
      const float* filter = scratch->filters[first + g].data();
      for (size_t i = 0; i < pixels; ++i) {
        product[i] = spectrum[i] * filter[i];
      }
      VR_RETURN_NOT_OK(
          scratch->fft->RunTransposed(product, /*inverse=*/true, &response));
      Magnitudes(response.data.data(), pixels, scratch->mags[g].data());
    }
    switch (group) {
      case 1:
        AppendPlaneStats<1>(scratch->mags, pixels, &feature);
        break;
      case 2:
        AppendPlaneStats<2>(scratch->mags, pixels, &feature);
        break;
      default:
        AppendPlaneStats<3>(scratch->mags, pixels, &feature);
        break;
    }
  }
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
