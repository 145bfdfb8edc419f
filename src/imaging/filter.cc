#include "imaging/filter.h"

#include <algorithm>
#include <cmath>

namespace vr {

namespace {

/// Re-sizes \p out to \p w x \p h unless it already has that geometry.
void Reshape(int w, int h, FloatImage* out) {
  if (out->width() != w || out->height() != h) *out = FloatImage(w, h);
}

}  // namespace

void SobelInto(const FloatImage& img, GradientField* out) {
  const int w = img.width();
  const int h = img.height();
  Reshape(w, h, &out->dx);
  Reshape(w, h, &out->dy);
  Reshape(w, h, &out->magnitude);
  if (w == 0 || h == 0) return;
  for (int y = 0; y < h; ++y) {
    // Rows y - 1, y, y + 1, clamped to the raster.
    const float* r0 = &img.data()[static_cast<size_t>(std::max(y - 1, 0)) * w];
    const float* r1 = &img.data()[static_cast<size_t>(y) * w];
    const float* r2 =
        &img.data()[static_cast<size_t>(std::min(y + 1, h - 1)) * w];
    const size_t row = static_cast<size_t>(y) * w;
    // Pixel x with its clamped left and right columns.
    auto at = [&](int x, int xl, int xr) {
      const float p00 = r0[xl];
      const float p10 = r0[x];
      const float p20 = r0[xr];
      const float p01 = r1[xl];
      const float p21 = r1[xr];
      const float p02 = r2[xl];
      const float p12 = r2[x];
      const float p22 = r2[xr];
      const float gx = (p20 + 2 * p21 + p22) - (p00 + 2 * p01 + p02);
      const float gy = (p02 + 2 * p12 + p22) - (p00 + 2 * p10 + p20);
      out->dx.data()[row + x] = gx;
      out->dy.data()[row + x] = gy;
      out->magnitude.data()[row + x] = std::sqrt(gx * gx + gy * gy);
    };
    at(0, 0, std::min(1, w - 1));
    for (int x = 1; x < w - 1; ++x) at(x, x - 1, x + 1);
    if (w > 1) at(w - 1, w - 2, w - 1);
  }
}

void SummedAreaTable::Build(const FloatImage& img) {
  width_ = img.width();
  height_ = img.height();
  const size_t stride = static_cast<size_t>(width_) + 1;
  sums_.assign(stride * (height_ + 1), 0.0);
  for (int y = 1; y <= height_; ++y) {
    double* s = &sums_[static_cast<size_t>(y) * stride];
    const double* above = s - stride;
    for (int x = 1; x <= width_; ++x) {
      s[x] = img.At(x - 1, y - 1) + s[x - 1] + above[x] - above[x - 1];
    }
  }
}

void NeighborhoodAverageInto(const SummedAreaTable& sat, int k,
                             FloatImage* out) {
  const int w = sat.width();
  const int h = sat.height();
  Reshape(w, h, out);
  const int half = (1 << k) / 2;
  for (int y = 0; y < h; ++y) {
    const int y0 = std::max(0, y - half);
    const int y1 = std::min(h, y + half);
    float* out_row = &out->data()[static_cast<size_t>(y) * w];
    // Pixel x with its clamped window columns [x0, x1).
    auto mean = [&](int x, int x0, int x1) {
      const double area = static_cast<double>(x1 - x0) * (y1 - y0);
      const double sum = sat.At(x1, y1) - sat.At(x0, y1) - sat.At(x1, y0) +
                         sat.At(x0, y0);
      out_row[x] = area > 0 ? static_cast<float>(sum / area) : 0.f;
    };
    const int inner_begin = std::min(half, w);
    const int inner_end = std::max(w - half, inner_begin);
    for (int x = 0; x < inner_begin; ++x) mean(x, 0, std::min(w, x + half));
    for (int x = inner_begin; x < inner_end; ++x) mean(x, x - half, x + half);
    for (int x = inner_end; x < w; ++x) mean(x, std::max(0, x - half), w);
  }
}

}  // namespace vr
