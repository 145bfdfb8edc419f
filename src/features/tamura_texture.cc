#include "features/tamura_texture.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "features/plan/frame_context.h"
#include "imaging/filter.h"
#include "imaging/resize.h"

namespace vr {

TamuraTexture::TamuraTexture(int max_scale, int dir_bins, double dir_threshold)
    : max_scale_(std::clamp(max_scale, 1, 7)),
      dir_bins_(std::max(4, dir_bins)),
      dir_threshold_(dir_threshold) {}

uint32_t TamuraTexture::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kGray);
}

namespace {
/// Per-kind planes reused across frames: the float raster, its one
/// summed-area table, the current window average, the per-pixel best
/// scale and the Sobel gradients.
struct TamuraScratch : PlanContext::Scratch {
  FloatImage f;
  SummedAreaTable sat;
  FloatImage average;
  std::vector<float> best_e;
  std::vector<int32_t> best_k;
  GradientField gradient;
};
}  // namespace

Result<FeatureVector> TamuraTexture::ExtractShared(const Image& img,
                                                   PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  // Bound the working size so coarseness windows stay meaningful and the
  // extractor stays fast on large frames.
  const Image* gray = &ctx.Gray();
  Image resized;
  if (gray->width() > 256 || gray->height() > 256) {
    const double s =
        256.0 / std::max(gray->width(), gray->height());
    resized = Resize(*gray, std::max(16, static_cast<int>(gray->width() * s)),
                     std::max(16, static_cast<int>(gray->height() * s)),
                     ResizeFilter::kBilinear);
    gray = &resized;
  }
  TamuraScratch& scratch = *ctx.ScratchFor<TamuraScratch>(kind());
  const int w = gray->width();
  const int h = gray->height();
  const size_t pixels = static_cast<size_t>(w) * h;
  FloatImage& f = scratch.f;
  if (f.width() != w || f.height() != h) f = FloatImage(w, h);
  for (size_t i = 0; i < pixels; ++i) {
    f.data()[i] = static_cast<float>(gray->data()[i]);
  }

  // --- Coarseness -------------------------------------------------------
  // A_k = window means; E_k = |A_k(x + 2^{k-1}) - A_k(x - 2^{k-1})| along
  // each axis; best scale per pixel maximizes E; coarseness = mean 2^best.
  // Every A_k comes from the one summed-area table. E is a float
  // difference widened to double, so best_e holds it exactly as a
  // float; scales are tried in ascending k per pixel with the same
  // strict comparison, and the sum adds exact small integers.
  scratch.sat.Build(f);
  scratch.best_e.assign(pixels, -1.0f);
  scratch.best_k.assign(pixels, 1);
  float* best_e = scratch.best_e.data();
  int32_t* best_k = scratch.best_k.data();
  for (int k = 1; k <= max_scale_; ++k) {
    FloatImage& a = scratch.average;
    NeighborhoodAverageInto(scratch.sat, k, &a);
    const int half = 1 << (k - 1);
    for (int y = 0; y < h; ++y) {
      const float* row = &a.data()[static_cast<size_t>(y) * w];
      const float* up =
          &a.data()[static_cast<size_t>(std::max(y - half, 0)) * w];
      const float* down =
          &a.data()[static_cast<size_t>(std::min(y + half, h - 1)) * w];
      const size_t base = static_cast<size_t>(y) * w;
      // Pixel x with its clamped left and right columns. The scale
      // update is a mask, not a branch, so the interior run vectorizes.
      auto consider = [&](int x, int xl, int xr) {
        const float eh = std::fabs(row[xr] - row[xl]);
        const float ev = std::fabs(down[x] - up[x]);
        const float e = eh < ev ? ev : eh;  // std::max(eh, ev)
        const float best = best_e[base + x];
        const int32_t better = -static_cast<int32_t>(e > best);
        best_e[base + x] = e > best ? e : best;
        best_k[base + x] = (best_k[base + x] & ~better) | (k & better);
      };
      const int inner_begin = std::min(half, w);
      const int inner_end = std::max(w - half, inner_begin);
      for (int x = 0; x < inner_begin; ++x) {
        consider(x, 0, std::min(x + half, w - 1));
      }
      for (int x = inner_begin; x < inner_end; ++x) {
        consider(x, x - half, x + half);
      }
      for (int x = inner_end; x < w; ++x) {
        consider(x, std::max(x - half, 0), w - 1);
      }
    }
  }
  double coarseness_sum = 0.0;
  for (size_t i = 0; i < pixels; ++i) {
    coarseness_sum += static_cast<double>(1 << best_k[i]);
  }
  const double coarseness = coarseness_sum / static_cast<double>(pixels);

  // --- Contrast -----------------------------------------------------------
  // sigma / kurtosis^(1/4), with kurtosis = mu4 / sigma^4.
  double mean = 0.0;
  for (float v : f.data()) mean += v;
  mean /= static_cast<double>(pixels);
  double m2 = 0.0;
  double m4 = 0.0;
  for (float v : f.data()) {
    const double d = v - mean;
    m2 += d * d;
    m4 += d * d * d * d;
  }
  m2 /= static_cast<double>(pixels);
  m4 /= static_cast<double>(pixels);
  double contrast = 0.0;
  if (m2 > 1e-12) {
    const double kurtosis = m4 / (m2 * m2);
    contrast = std::sqrt(m2) / std::pow(kurtosis, 0.25);
  }

  // --- Directionality -----------------------------------------------------
  SobelInto(f, &scratch.gradient);
  const GradientField& g = scratch.gradient;
  std::vector<double> dir(static_cast<size_t>(dir_bins_), 0.0);
  double dir_total = 0.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (g.magnitude.At(x, y) < dir_threshold_) continue;
      double theta =
          std::atan2(g.dy.At(x, y), g.dx.At(x, y));  // [-pi, pi]
      if (theta < 0) theta += M_PI;                  // fold to [0, pi)
      if (theta >= M_PI) theta -= M_PI;
      const int bin = std::min(
          dir_bins_ - 1, static_cast<int>(theta / M_PI * dir_bins_));
      dir[static_cast<size_t>(bin)] += 1.0;
      dir_total += 1.0;
    }
  }
  if (dir_total > 0) {
    for (double& d : dir) d /= dir_total;
  }

  std::vector<double> feature;
  feature.reserve(2 + dir.size());
  feature.push_back(coarseness);
  feature.push_back(contrast);
  feature.insert(feature.end(), dir.begin(), dir.end());
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
