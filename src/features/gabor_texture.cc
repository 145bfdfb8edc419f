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

/// Per-context Gabor working rasters. The prologue's context holds the
/// frame's transform (spectrum) for the parts to read; a context that
/// only runs parts sizes just the filter buffers. After the first frame,
/// extraction allocates nothing.
struct GaborScratch : PlanContext::Scratch {
  Image small;
  FloatImage f;
  std::vector<Complex> spectrum;  ///< the frame's transform, transposed
  ComplexImage response;
  std::vector<Complex> transposed;  ///< filter product / FFT scratch
  /// |response| of each filter of a statistics group.
  std::array<std::vector<float>, kStatGroup> mags;

  /// Sizes the buffers the filters use (the prologue's forward
  /// transform uses the first two as well).
  void SizeFilterBuffers(int ws) {
    if (response.width == ws) return;
    const size_t pixels = static_cast<size_t>(ws) * ws;
    response = ComplexImage(ws, ws);
    transposed.resize(pixels);
    for (std::vector<float>& plane : mags) plane.resize(pixels);
  }
};

/// Writes the mean and the standard deviation of each of the G planes
/// in \p mags (each \p pixels long) to \p out, plane by plane. Each
/// plane's sums run in pixel order, exactly as one plane at a time
/// would; the G chains only share the loop.
template <size_t G>
void PlaneStats(const std::array<std::vector<float>, kStatGroup>& mags,
                size_t pixels, double* out) {
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
    out[2 * g] = mean[g];
    out[2 * g + 1] = std::sqrt(var[g] / n);
  }
}

}  // namespace

uint32_t GaborTexture::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kGray);
}

const GaborTexture::Bank& GaborTexture::bank() const {
  std::call_once(bank_once_, [this] {
    const int ws = working_size_;
    const size_t pixels = static_cast<size_t>(ws) * ws;
    auto bank = std::make_unique<Bank>(ws);
    // g depends only on (m, n, kx, ky), never on the frame — a
    // one-sided Gaussian around the center frequency (u0, v0),
    // evaluated in double and stored as float.
    const double f_max = 0.4;
    bank->filters.reserve(static_cast<size_t>(scales_) * orientations_);
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
        bank->filters.push_back(std::move(plane));
      }
    }
    bank_ = std::move(bank);
  });
  return *bank_;
}

std::vector<size_t> GaborTexture::PartBounds() const {
  const size_t filters = static_cast<size_t>(scales_) * orientations_;
  const size_t groups = (filters + kStatGroup - 1) / kStatGroup;
  const size_t split = (groups + 1) / 2 * kStatGroup;
  if (split >= filters) return {0, 2 * filters};
  return {0, 2 * split, 2 * filters};
}

Result<FeatureVector> GaborTexture::ExtractShared(const Image& img,
                                                  PlanContext& ctx) const {
  return SplitExtract(img, ctx);
}

Status GaborTexture::ExtractPrologue(const Image& img, PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  const Bank& b = bank();
  GaborScratch* scratch = ctx.ScratchFor<GaborScratch>(kind());
  const int ws = working_size_;
  const size_t pixels = static_cast<size_t>(ws) * ws;
  scratch->SizeFilterBuffers(ws);
  if (scratch->f.width() != ws) {
    scratch->f = FloatImage(ws, ws);
    scratch->spectrum.resize(pixels);
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
  VR_RETURN_NOT_OK(b.fft.Run(&response, /*inverse=*/false,
                             &scratch->transposed));
  Transpose(response.data.data(), ws, ws, scratch->spectrum.data());
  return Status::OK();
}

Status GaborTexture::ExtractPart(size_t part, const PlanContext& prologue,
                                 PlanContext& ctx, double* out) const {
  const std::vector<size_t> bounds = PartBounds();
  const Bank& b = bank();
  // The spectrum is read through the prologue's scratch; when ctx is the
  // prologue's own context, the filters' buffers are the same object's
  // other members.
  const Complex* spectrum =
      prologue.ScratchOf<GaborScratch>(kind()).spectrum.data();
  GaborScratch* scratch = ctx.ScratchFor<GaborScratch>(kind());
  const int ws = working_size_;
  const size_t pixels = static_cast<size_t>(ws) * ws;
  scratch->SizeFilterBuffers(ws);

  Complex* product = scratch->transposed.data();
  const size_t first = bounds[part] / 2;
  const size_t last = bounds[part + 1] / 2;
  for (size_t at = first; at < last; at += kStatGroup) {
    const size_t group = std::min(kStatGroup, last - at);
    for (size_t g = 0; g < group; ++g) {
      const float* filter = b.filters[at + g].data();
      for (size_t i = 0; i < pixels; ++i) {
        product[i] = spectrum[i] * filter[i];
      }
      VR_RETURN_NOT_OK(b.fft.RunTransposed(product, /*inverse=*/true,
                                           &scratch->response));
      Magnitudes(scratch->response.data.data(), pixels,
                 scratch->mags[g].data());
    }
    double* stats = out + 2 * (at - first);
    switch (group) {
      case 1:
        PlaneStats<1>(scratch->mags, pixels, stats);
        break;
      case 2:
        PlaneStats<2>(scratch->mags, pixels, stats);
        break;
      default:
        PlaneStats<3>(scratch->mags, pixels, stats);
        break;
    }
  }
  return Status::OK();
}

}  // namespace vr
