#include "features/auto_correlogram.h"

#include <algorithm>
#include <array>
#include <vector>

#include "features/plan/frame_context.h"
#include "imaging/color.h"
#include "imaging/resize.h"

namespace vr {

AutoColorCorrelogram::AutoColorCorrelogram(int max_distance)
    : max_distance_(std::clamp(max_distance, 1, 16)) {}

uint32_t AutoColorCorrelogram::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kHsvPlane);
}

namespace {
/// Persistent downscale target for frames over the working-size cap.
struct CorrelogramScratch : PlanContext::Scratch {
  Image small;
};
}  // namespace

Result<FeatureVector> AutoColorCorrelogram::ExtractShared(
    const Image& img, PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  static_assert(kHsvQuantBins <= 256, "quantized colors are stored as bytes");
  int w = img.width();
  int h = img.height();
  Span<uint8_t> quant;
  if (w > 256 || h > 256) {
    // Cap the working size: the correlogram is O(pixels * max_distance^2)
    // and its statistics stabilize well below full resolution. The
    // shared HSV plane covers the full frame, so quantize the
    // downscaled pixels directly.
    Image& small = ctx.ScratchFor<CorrelogramScratch>(kind())->small;
    const double s = 256.0 / std::max(w, h);
    ResizeInto(img, std::max(8, static_cast<int>(w * s)),
               std::max(8, static_cast<int>(h * s)), ResizeFilter::kBilinear,
               &small);
    w = small.width();
    h = small.height();
    quant = ctx.arena().AllocSpan<uint8_t>(static_cast<size_t>(w) * h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        quant[static_cast<size_t>(y) * w + x] = static_cast<uint8_t>(
            QuantizeHsv(RgbToHsv(small.PixelRgb(x, y))));
      }
    }
  } else {
    // Quantized color plane from the shared HSV plane (row-major).
    quant = ctx.arena().AllocSpan<uint8_t>(static_cast<size_t>(w) * h);
    const std::vector<Hsv>& hsv = ctx.HsvPlane();
    for (size_t i = 0; i < quant.size(); ++i) {
      quant[i] = static_cast<uint8_t>(QuantizeHsv(hsv[i]));
    }
  }

  const int d_max = max_distance_;
  const size_t dims = static_cast<size_t>(kHsvQuantBins) * d_max;
  // counts[c][d-1] = same-color ordered pairs at chessboard distance d;
  // ring_total[c][d-1] = in-image neighbors at distance d of pixels of c.
  Span<uint64_t> counts = ctx.arena().AllocSpan<uint64_t>(dims);
  Span<uint64_t> ring_total = ctx.arena().AllocSpan<uint64_t>(dims);
  auto cell = [d_max](int c, int d) {
    return static_cast<size_t>(c) * d_max + static_cast<size_t>(d - 1);
  };

  // Pairs: q = p + o matches p exactly when p = q + (-o) matches q, with
  // the same color, so each ring is scanned over half its offsets (the
  // 4d with dy > 0, or dy == 0 and dx > 0) and every match counts 2.
  // match[p] collects p's matches at one distance; it fits a byte
  // (4d <= 64). The plane-wide offset loops are byte compares.
  const size_t pixels = quant.size();
  Span<uint8_t> match = ctx.arena().AllocSpan<uint8_t>(pixels);
  for (int d = 1; d <= d_max; ++d) {
    std::fill(match.begin(), match.end(), uint8_t{0});
    auto scan = [&](int dx, int dy) {
      const int x0 = std::max(0, -dx);
      const int x1 = std::min(w, w - dx);
      for (int y = 0; y + dy < h; ++y) {
        const uint8_t* a = quant.data() + static_cast<size_t>(y) * w;
        const uint8_t* b = quant.data() + static_cast<size_t>(y + dy) * w;
        uint8_t* m = match.data() + static_cast<size_t>(y) * w;
        for (int x = x0; x < x1; ++x) m[x] += a[x] == b[x + dx];
      }
    };
    for (int dx = -d; dx <= d; ++dx) scan(dx, d);
    for (int dy = 1; dy < d; ++dy) {
      scan(-d, dy);
      scan(d, dy);
    }
    scan(d, 0);
    for (size_t i = 0; i < pixels; ++i) {
      counts[cell(quant[i], d)] += 2u * match[i];
    }
  }

  // Ring sizes: the ring at d is the clipped (2d+1)^2 box less the
  // clipped (2d-1)^2 one. Pixels at least d_max from every edge see
  // full rings (8d cells), so they only need counting per color.
  auto side = [](int v, int r, int n) {  // clipped [v - r, v + r] length
    return std::min(v + r, n - 1) - std::max(v - r, 0) + 1;
  };
  std::array<uint64_t, kHsvQuantBins> interior{};
  for (int y = 0; y < h; ++y) {
    const bool inner_row = y >= d_max && y + d_max < h;
    for (int x = 0; x < w; ++x) {
      const int c = quant[static_cast<size_t>(y) * w + x];
      if (inner_row && x >= d_max && x + d_max < w) {
        ++interior[static_cast<size_t>(c)];
        continue;
      }
      for (int d = 1; d <= d_max; ++d) {
        ring_total[cell(c, d)] += static_cast<uint64_t>(
            side(x, d, w) * side(y, d, h) -
            side(x, d - 1, w) * side(y, d - 1, h));
      }
    }
  }
  for (int c = 0; c < kHsvQuantBins; ++c) {
    for (int d = 1; d <= d_max; ++d) {
      ring_total[cell(c, d)] +=
          8u * static_cast<uint64_t>(d) * interior[static_cast<size_t>(c)];
    }
  }

  // Both counts are exact integers, so the ratios are those of counting
  // every ordered pair cell by cell.
  std::vector<double> feature(dims, 0.0);
  for (size_t i = 0; i < dims; ++i) {
    feature[i] = ring_total[i] > 0 ? static_cast<double>(counts[i]) /
                                         static_cast<double>(ring_total[i])
                                   : 0.0;
  }
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
