#include "imaging/draw.h"

#include <algorithm>
#include <cmath>

namespace vr {

void FillRect(Image* img, int x, int y, int w, int h, Rgb color) {
  const int x0 = std::max(0, x);
  const int y0 = std::max(0, y);
  const int x1 = std::min(img->width(), x + w);
  const int y1 = std::min(img->height(), y + h);
  for (int yy = y0; yy < y1; ++yy) {
    for (int xx = x0; xx < x1; ++xx) {
      img->SetPixel(xx, yy, color);
    }
  }
}

void FillCircle(Image* img, int cx, int cy, int r, Rgb color) {
  const int x0 = std::max(0, cx - r);
  const int y0 = std::max(0, cy - r);
  const int x1 = std::min(img->width() - 1, cx + r);
  const int y1 = std::min(img->height() - 1, cy + r);
  const int r2 = r * r;
  for (int yy = y0; yy <= y1; ++yy) {
    for (int xx = x0; xx <= x1; ++xx) {
      const int dx = xx - cx;
      const int dy = yy - cy;
      if (dx * dx + dy * dy <= r2) img->SetPixel(xx, yy, color);
    }
  }
}

void DrawLine(Image* img, int x0, int y0, int x1, int y1, Rgb color) {
  const int dx = std::abs(x1 - x0);
  const int dy = -std::abs(y1 - y0);
  const int sx = x0 < x1 ? 1 : -1;
  const int sy = y0 < y1 ? 1 : -1;
  int err = dx + dy;
  while (true) {
    if (img->Contains(x0, y0)) img->SetPixel(x0, y0, color);
    if (x0 == x1 && y0 == y1) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

namespace {
Rgb Lerp(Rgb a, Rgb b, double t) {
  auto mix = [t](uint8_t u, uint8_t v) {
    return static_cast<uint8_t>(std::lround(u + (v - u) * t));
  };
  return {mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b)};
}
}  // namespace

void FillVerticalGradient(Image* img, Rgb top, Rgb bottom) {
  const int h = img->height();
  for (int y = 0; y < h; ++y) {
    const double t = h > 1 ? static_cast<double>(y) / (h - 1) : 0.0;
    const Rgb c = Lerp(top, bottom, t);
    for (int x = 0; x < img->width(); ++x) img->SetPixel(x, y, c);
  }
}

void FillHorizontalGradient(Image* img, Rgb left, Rgb right) {
  const int w = img->width();
  for (int x = 0; x < w; ++x) {
    const double t = w > 1 ? static_cast<double>(x) / (w - 1) : 0.0;
    const Rgb c = Lerp(left, right, t);
    for (int y = 0; y < img->height(); ++y) img->SetPixel(x, y, c);
  }
}

void DrawCheckerboard(Image* img, int cell, Rgb a, Rgb b) {
  cell = std::max(1, cell);
  for (int y = 0; y < img->height(); ++y) {
    for (int x = 0; x < img->width(); ++x) {
      const bool even = ((x / cell) + (y / cell)) % 2 == 0;
      img->SetPixel(x, y, even ? a : b);
    }
  }
}

void DrawStripes(Image* img, int period, double angle_deg, Rgb a, Rgb b) {
  period = std::max(2, period);
  const double rad = angle_deg * M_PI / 180.0;
  const double nx = std::cos(rad);
  const double ny = std::sin(rad);
  for (int y = 0; y < img->height(); ++y) {
    for (int x = 0; x < img->width(); ++x) {
      const double proj = x * nx + y * ny;
      const int band = static_cast<int>(std::floor(proj / period));
      img->SetPixel(x, y, (band % 2 + 2) % 2 == 0 ? a : b);
    }
  }
}

void AddGaussianNoise(Image* img, double stddev, Rng* rng) {
  uint8_t* p = img->data();
  const size_t n = img->SizeBytes();
  for (size_t i = 0; i < n; ++i) {
    const double v = p[i] + rng->Gaussian(0.0, stddev);
    p[i] = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
  }
}

void DrawTextBlock(Image* img, int x, int y, int w, int h, int line_height,
                   Rgb ink, Rng* rng) {
  line_height = std::max(3, line_height);
  const int bar = std::max(1, line_height * 2 / 3);
  for (int ly = y; ly + bar <= y + h; ly += line_height) {
    // Ragged right margin, like text lines.
    const int len = static_cast<int>(
        w * rng->UniformDouble(0.55, 1.0));
    FillRect(img, x, ly, len, bar, ink);
  }
}

}  // namespace vr
