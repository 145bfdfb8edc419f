#include "features/naive_signature.h"

#include <algorithm>

#include "features/plan/frame_context.h"

namespace vr {

NaiveSignature::NaiveSignature(int base_size, int sample_size)
    : base_size_(std::max(25, base_size)),
      sample_size_(std::max(1, sample_size)) {}

Result<FeatureVector> NaiveSignature::ExtractShared(const Image& img,
                                                    PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  // Each window of the base_size x base_size nearest-neighbor rescale
  // is summed straight from the frame: rescaled cell (x, y) is source
  // pixel (src(x), src(y)) with ResizeNearestInto's index formula, which
  // is also the identity when the frame already has the base size (the
  // scale is exactly 1). The sums are exact integers, so visiting the
  // cells in place of a resampled raster changes no bit.
  const int channels = img.channels();
  const double sx = static_cast<double>(img.width()) / base_size_;
  const double sy = static_cast<double>(img.height()) / base_size_;
  Span<int> src_x = ctx.arena().AllocSpan<int>(2 * sample_size_);
  std::vector<double> feature;
  feature.reserve(static_cast<size_t>(kPoints) * 3);
  for (int gy = 0; gy < kGrid; ++gy) {
    const double py = (2.0 * gy + 1.0) / (2.0 * kGrid);  // 0.1, 0.3, ...
    const int cy = static_cast<int>(py * base_size_);
    const int y0 = std::max(0, cy - sample_size_);
    const int y1 = std::min(base_size_, cy + sample_size_);
    for (int gx = 0; gx < kGrid; ++gx) {
      const double px = (2.0 * gx + 1.0) / (2.0 * kGrid);
      const int cx = static_cast<int>(px * base_size_);
      const int x0 = std::max(0, cx - sample_size_);
      const int x1 = std::min(base_size_, cx + sample_size_);
      for (int x = x0; x < x1; ++x) {
        src_x[static_cast<size_t>(x - x0)] =
            std::min(static_cast<int>(x * sx), img.width() - 1);
      }
      uint64_t accum[3] = {0, 0, 0};
      for (int y = y0; y < y1; ++y) {
        const int src_y = std::min(static_cast<int>(y * sy), img.height() - 1);
        const uint8_t* row =
            img.data() + static_cast<size_t>(src_y) * img.width() * channels;
        for (int i = 0; i < x1 - x0; ++i) {
          const uint8_t* p = row + static_cast<size_t>(src_x[i]) * channels;
          // A gray frame replicates its value into R, G and B.
          accum[0] += p[0];
          accum[1] += p[channels == 3 ? 1 : 0];
          accum[2] += p[channels == 3 ? 2 : 0];
        }
      }
      const int num = std::max(1, (x1 - x0) * (y1 - y0));
      for (uint64_t sum : accum) {
        feature.push_back(static_cast<double>(sum) / num);
      }
    }
  }
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
