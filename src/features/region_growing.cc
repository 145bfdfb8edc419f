#include "features/region_growing.h"

#include <vector>

#include "features/plan/frame_context.h"
#include "imaging/color.h"
#include "imaging/morphology.h"
#include "imaging/threshold.h"

namespace vr {

SimpleRegionGrowing::SimpleRegionGrowing(double major_fraction)
    : major_fraction_(major_fraction) {}

namespace {

/// The paper's preprocessing after gray conversion: binarize \p gray at
/// the minimum-fuzziness threshold of \p hist (its histogram) into
/// \p binary, then dilate, erode, erode, dilate (a close followed by an
/// open) with its 5x5 kernel, in place; \p tmp is a second plane of
/// scratch. Both buffers hold gray.PixelCount() bytes.
void PaperBinary(const Image& gray, const GrayHistogram& hist,
                 uint8_t* binary, uint8_t* tmp) {
  const int w = gray.width();
  const int h = gray.height();
  const int threshold = MinFuzzinessThreshold(hist);
  const uint8_t* g = gray.data();
  const size_t pixels = gray.PixelCount();
  for (size_t i = 0; i < pixels; ++i) binary[i] = g[i] > threshold ? 255 : 0;
  const StructuringElement kernel = PaperKernel5x5();
  for (MorphOp op : {MorphOp::kDilate, MorphOp::kErode, MorphOp::kErode,
                     MorphOp::kDilate}) {
    MorphPlane(op, kernel, binary, w, h, tmp, binary);
  }
}

}  // namespace

Result<Image> SimpleRegionGrowing::Preprocess(const Image& img) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  const Image gray = ToGray(img);
  Image binary(gray.width(), gray.height(), 1);
  std::vector<uint8_t> tmp(gray.PixelCount());
  PaperBinary(gray, ComputeGrayHistogram(gray), binary.data(), tmp.data());
  return binary;
}

Result<RegionStats> SimpleRegionGrowing::Analyze(const Image& img) const {
  VR_ASSIGN_OR_RETURN(Image binary, Preprocess(img));
  std::vector<int> labels(binary.PixelCount(), 0);
  std::vector<Pt> stack(binary.PixelCount());
  return LabelRegions(binary.data(), binary.width(), binary.height(),
                      labels.data(), stack.data());
}

RegionStats SimpleRegionGrowing::LabelRegions(const uint8_t* binary, int w,
                                              int h, int* labels,
                                              Pt* stack) const {
  auto value_at = [&](int x, int y) {
    return binary[static_cast<size_t>(y) * w + x];
  };
  auto label_at = [&](int x, int y) -> int& {
    return labels[static_cast<size_t>(y) * w + x];
  };

  RegionStats stats;
  const size_t major_min = std::max<size_t>(
      1, static_cast<size_t>(major_fraction_ * static_cast<double>(w) * h));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (label_at(x, y) != 0) continue;
      const uint8_t value = value_at(x, y);
      if (value == 0) ++stats.num_holes;
      ++stats.num_regions;
      const int region = stats.num_regions;
      size_t size = 0;
      size_t top = 0;
      stack[top++] = {x, y};
      label_at(x, y) = region;
      while (top > 0) {
        const auto [cx, cy] = stack[--top];
        ++size;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int nx = cx + dx;
            const int ny = cy + dy;
            if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
            if (label_at(nx, ny) != 0) continue;
            if (value_at(nx, ny) != value) continue;
            label_at(nx, ny) = region;
            stack[top++] = {nx, ny};
          }
        }
      }
      if (size >= major_min) ++stats.num_major_regions;
    }
  }
  return stats;
}

uint32_t SimpleRegionGrowing::SharedIntermediates() const {
  return static_cast<uint32_t>(Intermediate::kGray) |
         static_cast<uint32_t>(Intermediate::kGrayHistogram);
}

Result<FeatureVector> SimpleRegionGrowing::ExtractShared(
    const Image& img, PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  // Preprocess() computes gray + histogram itself; here both come from
  // the shared plan (the histogram over the gray plane is exactly
  // ComputeGrayHistogram of it), and the binary plane, the morphology
  // scratch and the labeling buffers come from the frame arena.
  const Image& gray = ctx.Gray();
  const size_t pixels = gray.PixelCount();
  Span<uint8_t> binary = ctx.arena().AllocSpan<uint8_t>(pixels);
  Span<uint8_t> tmp = ctx.arena().AllocSpan<uint8_t>(pixels);
  PaperBinary(gray, ctx.Histogram(), binary.data(), tmp.data());
  Span<int> labels = ctx.arena().AllocSpan<int>(pixels);
  Span<Pt> stack = ctx.arena().AllocSpan<Pt>(pixels);
  const RegionStats stats = LabelRegions(binary.data(), gray.width(),
                                         gray.height(), labels.data(),
                                         stack.data());
  return FeatureVector(
      name(), {static_cast<double>(stats.num_regions),
               static_cast<double>(stats.num_holes),
               static_cast<double>(stats.num_major_regions)});
}

}  // namespace vr
