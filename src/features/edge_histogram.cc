#include "features/edge_histogram.h"

#include <algorithm>
#include <cmath>

#include "features/plan/frame_context.h"
#include "imaging/float_image.h"

namespace vr {

EdgeHistogram::EdgeHistogram(int grid, double edge_threshold)
    : grid_(std::clamp(grid, 1, 16)), edge_threshold_(edge_threshold) {}

uint32_t EdgeHistogram::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kGrayFloat);
}

Result<FeatureVector> EdgeHistogram::ExtractShared(const Image& img,
                                                   PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  if (img.width() < 2 * grid_ || img.height() < 2 * grid_) {
    return Status::InvalidArgument("image too small for edge grid");
  }
  const FloatImage& gray = ctx.GrayFloat();
  // MPEG-7 EHD block filters over 2x2 means a, b / c, d:
  //   vertical:    |a + c - b - d|
  //   horizontal:  |a + b - c - d|
  //   45 deg:      sqrt2 * |a - d|
  //   135 deg:     sqrt2 * |b - c|
  //   non-dir:     |a - b - c + d| * 2   (high-frequency check)
  std::vector<double> feature(dimensions(), 0.0);
  std::vector<double> block_totals(static_cast<size_t>(grid_) * grid_, 0.0);
  const double sqrt2 = std::sqrt(2.0);
  for (int by = 0; by + 1 < gray.height(); by += 2) {
    for (int bx = 0; bx + 1 < gray.width(); bx += 2) {
      const double a = gray.At(bx, by);
      const double b = gray.At(bx + 1, by);
      const double c = gray.At(bx, by + 1);
      const double d = gray.At(bx + 1, by + 1);
      const double responses[kEdgeTypes] = {
          std::fabs(a + c - b - d),       // vertical
          std::fabs(a + b - c - d),       // horizontal
          sqrt2 * std::fabs(a - d),       // 45 degrees
          sqrt2 * std::fabs(b - c),       // 135 degrees
          2.0 * std::fabs(a - b - c + d)  // non-directional
      };
      int best = 0;
      for (int t = 1; t < kEdgeTypes; ++t) {
        if (responses[t] > responses[best]) best = t;
      }
      const int gx = std::min(grid_ - 1, bx * grid_ / gray.width());
      const int gy = std::min(grid_ - 1, by * grid_ / gray.height());
      const size_t cell = static_cast<size_t>(gy) * grid_ + gx;
      ++block_totals[cell];
      if (responses[best] >= edge_threshold_) {
        feature[cell * kEdgeTypes + static_cast<size_t>(best)] += 1.0;
      }
    }
  }
  // Normalize per sub-image so frame size cancels out.
  for (size_t cell = 0; cell < block_totals.size(); ++cell) {
    if (block_totals[cell] <= 0) continue;
    for (int t = 0; t < kEdgeTypes; ++t) {
      feature[cell * kEdgeTypes + static_cast<size_t>(t)] /=
          block_totals[cell];
    }
  }
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
