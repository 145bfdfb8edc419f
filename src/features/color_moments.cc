#include "features/color_moments.h"

#include <cmath>

#include "features/plan/frame_context.h"
#include "imaging/color.h"

namespace vr {

uint32_t ColorMoments::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kHsvPlane);
}

Result<FeatureVector> ColorMoments::ExtractShared(const Image& img,
                                                  PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  // Fed from the shared HSV plane (row-major) instead of a private copy.
  const std::vector<Hsv>& pixels = ctx.HsvPlane();
  const double n = static_cast<double>(img.PixelCount());
  double sum[3] = {0, 0, 0};
  // Hue is angular; use its sine/cosine mean to get a stable center,
  // then fold per-pixel hue differences around it. Saturation and value
  // are plain [0, 1] channels.
  double hue_sin = 0.0;
  double hue_cos = 0.0;
  for (const Hsv& hsv : pixels) {
    hue_sin += std::sin(hsv.h * M_PI / 180.0);
    hue_cos += std::cos(hsv.h * M_PI / 180.0);
    sum[1] += hsv.s;
    sum[2] += hsv.v;
  }
  const double hue_mean_rad = std::atan2(hue_sin, hue_cos);
  auto hue_delta = [&](double h_deg) {
    double d = h_deg * M_PI / 180.0 - hue_mean_rad;
    while (d > M_PI) d -= 2 * M_PI;
    while (d < -M_PI) d += 2 * M_PI;
    return d / M_PI;  // normalized to [-1, 1]
  };
  // Channel accessors normalized to comparable ranges.
  auto channel = [&](const Hsv& p, int c) {
    switch (c) {
      case 0:
        return hue_delta(p.h);
      case 1:
        return p.s;
      default:
        return p.v;
    }
  };
  const double means[3] = {0.0, sum[1] / n, sum[2] / n};

  std::vector<double> feature;
  feature.reserve(kDims);
  for (int c = 0; c < 3; ++c) {
    double m2 = 0.0;
    double m3 = 0.0;
    for (const Hsv& p : pixels) {
      const double d = channel(p, c) - means[c];
      m2 += d * d;
      m3 += d * d * d;
    }
    m2 /= n;
    m3 /= n;
    // Mean reported for hue is the circular mean angle (normalized).
    feature.push_back(c == 0 ? hue_mean_rad / M_PI : means[c]);
    feature.push_back(std::sqrt(m2));
    feature.push_back(std::cbrt(m3));
  }
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
