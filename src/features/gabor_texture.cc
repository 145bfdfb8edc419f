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
    : GaborTexture(scales, orientations, working_size, kCropSigmas) {}

GaborTexture::GaborTexture(int scales, int orientations, int working_size,
                           double crop_sigmas)
    : scales_(std::max(1, scales)),
      orientations_(std::max(1, orientations)),
      working_size_(static_cast<int>(
          NextPowerOfTwo(static_cast<size_t>(std::max(16, working_size))))),
      crop_sigmas_(crop_sigmas) {}

namespace {

/// Per-context Gabor working rasters. The prologue's context holds the
/// frame's transform (spectrum) for the parts to read; a context that
/// only runs parts sizes just the filter buffers. After the first frame,
/// extraction allocates nothing.
struct GaborScratch : PlanContext::Scratch {
  Image small;
  FloatImage f;
  std::vector<Complex> spectrum;  ///< the frame's transform, transposed
  ComplexImage response;
  ComplexImage crop_response;
  std::vector<Complex> transposed;  ///< filter product / FFT scratch
  std::vector<float> mags;          ///< |response| of one filter

  /// Sizes the buffers the filters use (the prologue's forward
  /// transform uses `response` and `transposed` as well).
  void SizeFilterBuffers(int ws) {
    if (response.width == ws) return;
    const size_t pixels = static_cast<size_t>(ws) * ws;
    response = ComplexImage(ws, ws);
    crop_response = ComplexImage(ws / 2, ws / 2);
    transposed.resize(pixels);
    mags.resize(pixels);
  }
};

/// Accumulator lanes of the response statistics.
constexpr size_t kStatLanes = 8;

/// Sum of the lanes, in a fixed order.
double SumLanes(const double (&lanes)[kStatLanes]) {
  double sum = 0.0;
  for (double v : lanes) sum += v;
  return sum;
}

/// Writes \p scale times the mean and the standard deviation of the
/// \p n samples at \p mags (n a multiple of kStatLanes) to out[0] and
/// out[1], in one pass over the sum and the sum of squares. Each sum
/// runs in kStatLanes accumulators, so the adds of different lanes
/// overlap; the association is the source's, whatever the target. In
/// double, E[m^2] - mean^2 of float samples loses ~1e-16 of E[m^2],
/// far inside the bank's tolerance. The lane loop is unrolled whole so
/// the accumulators stay in registers.
void MeanStd(const float* mags, size_t n, double scale, double* out) {
  static_assert(kStatLanes == 8, "the unroll pragma spells out kStatLanes");
  double sum[kStatLanes] = {};
  double squares[kStatLanes] = {};
  for (size_t i = 0; i < n; i += kStatLanes) {
#pragma GCC unroll 8
    for (size_t j = 0; j < kStatLanes; ++j) {
      const double m = mags[i + j];
      sum[j] += m;
      squares[j] += m * m;
    }
  }
  const double count = static_cast<double>(n);
  const double mean = SumLanes(sum) / count;
  const double var = std::max(0.0, SumLanes(squares) / count - mean * mean);
  out[0] = scale * mean;
  out[1] = scale * std::sqrt(var);
}

/// Transform cost of a filter of \p size: size^2 log2(size^2).
double FilterCost(int size) {
  const double pixels = static_cast<double>(size) * size;
  return pixels * std::log2(pixels);
}

}  // namespace

uint32_t GaborTexture::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kGray);
}

const GaborTexture::Bank& GaborTexture::bank() const {
  std::call_once(bank_once_, [this] {
    const int ws = working_size_;
    auto bank = std::make_unique<Bank>(ws);
    // The signed frequency of bin k (any integer), in cycles per pixel.
    const auto freq = [ws](int k) {
      const int wrapped = k & (ws - 1);
      return (wrapped < ws / 2 ? wrapped : wrapped - ws) /
             static_cast<double>(ws);
    };
    // g depends only on (m, n, kx, ky), never on the frame — a
    // one-sided Gaussian around the center frequency (u0, v0),
    // evaluated in double and stored as float.
    const double f_max = 0.4;
    bank->filters.reserve(static_cast<size_t>(scales_) * orientations_);
    for (int m = 0; m < scales_; ++m) {
      const double f0 = f_max / std::pow(std::sqrt(2.0), m);
      const double sigma_f = f0 / 2.0;
      const bool crop = crop_sigmas_ * sigma_f * ws <= ws / 4.0;
      for (int n = 0; n < orientations_; ++n) {
        const double theta = static_cast<double>(n) * M_PI / orientations_;
        const double u0 = f0 * std::cos(theta);
        const double v0 = f0 * std::sin(theta);
        Filter filter;
        filter.size = crop ? ws / 2 : ws;
        if (crop) {
          filter.kx0 = static_cast<int>(std::lround(u0 * ws)) - ws / 4;
          filter.ky0 = static_cast<int>(std::lround(v0 * ws)) - ws / 4;
        }
        const int size = filter.size;
        filter.plane.resize(static_cast<size_t>(size) * size);
        for (int kx = filter.kx0; kx < filter.kx0 + size; ++kx) {
          const double du = freq(kx) - u0;
          float* column = &filter.plane[static_cast<size_t>(kx & (size - 1)) *
                                        static_cast<size_t>(size)];
          for (int ky = filter.ky0; ky < filter.ky0 + size; ++ky) {
            const double dv = freq(ky) - v0;
            column[ky & (size - 1)] = static_cast<float>(
                std::exp(-(du * du + dv * dv) / (2.0 * sigma_f * sigma_f)));
          }
        }
        bank->filters.push_back(std::move(filter));
      }
    }
    bank_ = std::move(bank);
  });
  return *bank_;
}

std::vector<size_t> GaborTexture::PartBounds() const {
  const std::vector<Filter>& filters = bank().filters;
  double total = 0.0;
  for (const Filter& f : filters) total += FilterCost(f.size);
  // The split with the smallest |prefix - (total - prefix)|.
  size_t split = 0;
  double prefix = 0.0;
  double best = total;
  for (size_t i = 0; i < filters.size(); ++i) {
    prefix += FilterCost(filters[i].size);
    const double gap = std::abs(2.0 * prefix - total);
    if (gap < best) {
      best = gap;
      split = i + 1;
    }
  }
  if (split == 0 || split >= filters.size()) return {0, 2 * filters.size()};
  return {0, 2 * split, 2 * filters.size()};
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
  double moments[2];  // mean, std
  MeanStd(f.data().data(), pixels, 1.0, moments);
  const double mean = moments[0];
  const double inv_std = moments[1] > 1e-6 ? 1.0 / moments[1] : 0.0;
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
  scratch->SizeFilterBuffers(ws);

  Complex* product = scratch->transposed.data();
  const size_t first = bounds[part] / 2;
  const size_t last = bounds[part + 1] / 2;
  for (size_t at = first; at < last; ++at) {
    const Filter& filter = b.filters[at];
    const int size = filter.size;
    // The window's spectrum times the filter, column by column; a column
    // splits where the window's bins wrap past a multiple of size (the
    // spectrum wraps only at those too, as size divides ws).
    for (int kx = filter.kx0; kx < filter.kx0 + size; ++kx) {
      const size_t to = static_cast<size_t>(kx & (size - 1)) * size;
      const Complex* from =
          spectrum + static_cast<size_t>(kx & (ws - 1)) * ws;
      const int ky1 = filter.ky0 + size;
      for (int ky = filter.ky0; ky < ky1;) {
        const int run = std::min(size - (ky & (size - 1)), ky1 - ky);
        const size_t at_to = to + static_cast<size_t>(ky & (size - 1));
        const Complex* src = from + (ky & (ws - 1));
        const float* g = filter.plane.data() + at_to;
        Complex* dst = product + at_to;
        for (int i = 0; i < run; ++i) dst[i] = src[i] * g[i];
        ky += run;
      }
    }
    const bool cropped = size != ws;
    ComplexImage& response =
        cropped ? scratch->crop_response : scratch->response;
    VR_RETURN_NOT_OK((cropped ? b.crop_fft : b.fft)
                         .RunTransposed(product, /*inverse=*/true, &response));
    const size_t pixels = static_cast<size_t>(size) * size;
    Magnitudes(response.data.data(), pixels, scratch->mags.data());
    // A half-size inverse transform carries 1/(ws/2)^2, not 1/ws^2.
    const double scale = cropped ? 0.25 : 1.0;
    MeanStd(scratch->mags.data(), pixels, scale, out + 2 * (at - first));
  }
  return Status::OK();
}

}  // namespace vr
