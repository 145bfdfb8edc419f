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
  const FloatImage f = FloatImage::FromImage(*gray);
  const int w = f.width();
  const int h = f.height();
  const size_t pixels = static_cast<size_t>(w) * h;

  // --- Coarseness -------------------------------------------------------
  // A_k = window means; E_k = |A_k(x + 2^{k-1}) - A_k(x - 2^{k-1})| along
  // each axis; best scale per pixel maximizes E; coarseness = mean 2^best.
  std::vector<FloatImage> averages;
  averages.reserve(static_cast<size_t>(max_scale_));
  for (int k = 1; k <= max_scale_; ++k) {
    averages.push_back(NeighborhoodAverage(f, k));
  }
  double coarseness_sum = 0.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double best_e = -1.0;
      int best_k = 1;
      for (int k = 1; k <= max_scale_; ++k) {
        const FloatImage& a = averages[static_cast<size_t>(k - 1)];
        const int half = 1 << (k - 1);
        const double eh = std::fabs(a.AtClamped(x + half, y) -
                                    a.AtClamped(x - half, y));
        const double ev = std::fabs(a.AtClamped(x, y + half) -
                                    a.AtClamped(x, y - half));
        const double e = std::max(eh, ev);
        if (e > best_e) {
          best_e = e;
          best_k = k;
        }
      }
      coarseness_sum += static_cast<double>(1 << best_k);
    }
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
  const GradientField g = Sobel(f);
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
