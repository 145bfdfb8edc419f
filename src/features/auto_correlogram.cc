#include "features/auto_correlogram.h"

#include <algorithm>
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
  int w = img.width();
  int h = img.height();
  Span<int> quant;
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
    quant = ctx.arena().AllocSpan<int>(static_cast<size_t>(w) * h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        quant[static_cast<size_t>(y) * w + x] =
            QuantizeHsv(RgbToHsv(small.PixelRgb(x, y)));
      }
    }
  } else {
    // Quantized color plane from the shared HSV plane (row-major).
    quant = ctx.arena().AllocSpan<int>(static_cast<size_t>(w) * h);
    const std::vector<Hsv>& hsv = ctx.HsvPlane();
    for (size_t i = 0; i < quant.size(); ++i) quant[i] = QuantizeHsv(hsv[i]);
  }

  const int d_max = max_distance_;
  const size_t dims = static_cast<size_t>(kHsvQuantBins) * d_max;
  // counts[c][d-1] = same-color pairs at chessboard distance d;
  // ring_total[c][d-1] = in-image neighbors inspected from pixels of c.
  // Pair counts accumulate sums of 1.0 — exact integers — so the order
  // in which ring cells are visited (row/column-wise here, cache- and
  // SIMD-friendly) cannot change the totals: integer addition is
  // order-independent.
  Span<double> counts = ctx.arena().AllocSpan<double>(dims);
  Span<double> ring_total = ctx.arena().AllocSpan<double>(dims);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int c = quant[static_cast<size_t>(y) * w + x];
      const bool interior =
          x >= d_max && y >= d_max && x + d_max < w && y + d_max < h;
      for (int d = 1; d <= d_max; ++d) {
        const size_t idx =
            static_cast<size_t>(c) * d_max + static_cast<size_t>(d - 1);
        if (interior) {
          // Every ring cell is in-image: top/bottom rows are contiguous
          // runs, sides are strided columns; no bounds checks.
          const int* top = quant.data() + static_cast<size_t>(y - d) * w +
                           (x - d);
          const int* bot = quant.data() + static_cast<size_t>(y + d) * w +
                           (x - d);
          int match = 0;
          const int len = 2 * d + 1;
          for (int i = 0; i < len; ++i) {
            match += (top[i] == c) + (bot[i] == c);
          }
          for (int yy = y - d + 1; yy <= y + d - 1; ++yy) {
            const int* row = quant.data() + static_cast<size_t>(yy) * w;
            match += (row[x - d] == c) + (row[x + d] == c);
          }
          ring_total[idx] += static_cast<double>(8 * d);
          counts[idx] += static_cast<double>(match);
        } else {
          // Boundary pixels: same chessboard ring, with clipping.
          for (int dy = -d; dy <= d; ++dy) {
            const int ny = y + dy;
            if (ny < 0 || ny >= h) continue;
            const int* row = quant.data() + static_cast<size_t>(ny) * w;
            const bool edge_row = dy == -d || dy == d;
            const int x0 = std::max(0, x - d);
            const int x1 = std::min(w - 1, x + d);
            if (edge_row) {
              for (int nx = x0; nx <= x1; ++nx) {
                ring_total[idx] += 1.0;
                if (row[nx] == c) counts[idx] += 1.0;
              }
            } else {
              if (x - d >= 0) {
                ring_total[idx] += 1.0;
                if (row[x - d] == c) counts[idx] += 1.0;
              }
              if (x + d < w) {
                ring_total[idx] += 1.0;
                if (row[x + d] == c) counts[idx] += 1.0;
              }
            }
          }
        }
      }
    }
  }

  std::vector<double> feature(dims, 0.0);
  for (size_t i = 0; i < dims; ++i) {
    feature[i] = ring_total[i] > 0 ? counts[i] / ring_total[i] : 0.0;
  }
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
