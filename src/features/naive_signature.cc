#include "features/naive_signature.h"

#include <algorithm>

#include "features/plan/frame_context.h"
#include "imaging/resize.h"

namespace vr {

NaiveSignature::NaiveSignature(int base_size, int sample_size)
    : base_size_(std::max(25, base_size)),
      sample_size_(std::max(1, sample_size)) {}

namespace {
/// Persistent rescale target so steady-state extraction reuses one
/// 300x300 buffer instead of reallocating it per frame.
struct NaiveScratch : PlanContext::Scratch {
  Image scaled;
};
}  // namespace

Result<FeatureVector> NaiveSignature::ExtractShared(const Image& img,
                                                    PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  NaiveScratch* scratch = ctx.ScratchFor<NaiveScratch>(kind());
  ResizeInto(img, base_size_, base_size_, ResizeFilter::kNearest,
             &scratch->scaled);
  const Image& scaled = scratch->scaled;
  std::vector<double> feature;
  feature.reserve(static_cast<size_t>(kPoints) * 3);
  for (int gy = 0; gy < kGrid; ++gy) {
    const double py = (2.0 * gy + 1.0) / (2.0 * kGrid);  // 0.1, 0.3, ...
    for (int gx = 0; gx < kGrid; ++gx) {
      const double px = (2.0 * gx + 1.0) / (2.0 * kGrid);
      const int cx = static_cast<int>(px * base_size_);
      const int cy = static_cast<int>(py * base_size_);
      double accum[3] = {0.0, 0.0, 0.0};
      int num = 0;
      for (int y = cy - sample_size_; y < cy + sample_size_; ++y) {
        for (int x = cx - sample_size_; x < cx + sample_size_; ++x) {
          if (!scaled.Contains(x, y)) continue;
          const Rgb p = scaled.PixelRgb(x, y);
          accum[0] += p.r;
          accum[1] += p.g;
          accum[2] += p.b;
          ++num;
        }
      }
      if (num == 0) num = 1;
      feature.push_back(accum[0] / num);
      feature.push_back(accum[1] / num);
      feature.push_back(accum[2] / num);
    }
  }
  return FeatureVector(name(), std::move(feature));
}

}  // namespace vr
