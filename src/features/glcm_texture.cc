#include "features/glcm_texture.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "features/plan/frame_context.h"

namespace vr {

GlcmTexture::GlcmTexture(int step, int levels)
    : step_(std::max(1, step)), levels_(std::clamp(levels, 2, 256)) {}

uint32_t GlcmTexture::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kGray);
}

Result<FeatureVector> GlcmTexture::ExtractShared(const Image& img,
                                                 PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  if (img.width() <= step_) {
    return Status::InvalidArgument("image narrower than GLCM step");
  }
  int shift = 0;
  while ((256 >> shift) > levels_) ++shift;
  const size_t l = static_cast<size_t>(256 >> shift);
  // Arena-backed matrix: no allocation once the arena has warmed up.
  Span<double> glcm = ctx.arena().AllocSpan<double>(l * l);
  const Image& gray = ctx.Gray();
  uint64_t pixel_counter = 0;
  for (int y = 0; y < gray.height(); ++y) {
    for (int x = 0; x + step_ < gray.width(); ++x) {
      const size_t a = static_cast<size_t>(gray.At(x, y) >> shift);
      const size_t b = static_cast<size_t>(gray.At(x + step_, y) >> shift);
      // Symmetric tabulation, as in the paper.
      glcm[a * l + b] += 1.0;
      glcm[b * l + a] += 1.0;
      pixel_counter += 2;
    }
  }
  if (pixel_counter == 0) return Status::InvalidArgument("degenerate image");
  for (size_t i = 0; i < l * l; ++i) {
    glcm[i] /= static_cast<double>(pixel_counter);
  }

  double asm_ = 0.0;
  double contrast = 0.0;
  double idm = 0.0;
  double entropy = 0.0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t a = 0; a < l; ++a) {
    for (size_t b = 0; b < l; ++b) {
      const double p = glcm[a * l + b];
      if (p == 0.0) continue;
      asm_ += p * p;
      const double d = static_cast<double>(a) - static_cast<double>(b);
      contrast += d * d * p;
      idm += p / (1.0 + d * d);
      entropy -= p * std::log(p);
      mean_x += static_cast<double>(a) * p;
      mean_y += static_cast<double>(b) * p;
    }
  }
  double var_x = 0.0;
  double var_y = 0.0;
  double cov = 0.0;
  for (size_t a = 0; a < l; ++a) {
    for (size_t b = 0; b < l; ++b) {
      const double p = glcm[a * l + b];
      if (p == 0.0) continue;
      const double dx = static_cast<double>(a) - mean_x;
      const double dy = static_cast<double>(b) - mean_y;
      var_x += dx * dx * p;
      var_y += dy * dy * p;
      cov += dx * dy * p;
    }
  }
  const double denom = std::sqrt(var_x) * std::sqrt(var_y);
  const double correlation = denom > 0 ? cov / denom : 0.0;

  return FeatureVector(
      name(), {static_cast<double>(pixel_counter), asm_, contrast, correlation,
               idm, entropy});
}

}  // namespace vr
