#include "features/color_histogram.h"

#include "features/plan/frame_context.h"
#include "imaging/color.h"

namespace vr {

int SimpleColorHistogram::Quantize(Rgb pixel) const {
  switch (space_) {
    case HistogramSpace::kRgb256:
      // 8 x 8 x 4 levels.
      return ((pixel.r >> 5) << 5) | ((pixel.g >> 5) << 2) | (pixel.b >> 6);
    case HistogramSpace::kGray256:
      return RgbToGray(pixel);
    case HistogramSpace::kHsv256:
      return QuantizeHsv(RgbToHsv(pixel));
  }
  return 0;
}

uint32_t SimpleColorHistogram::SharedIntermediates() const {
  switch (space_) {
    case HistogramSpace::kRgb256:
      return 0;  // quantizes raw RGB bytes, nothing shareable
    case HistogramSpace::kGray256:
      return static_cast<uint32_t>(Intermediate::kGray);
    case HistogramSpace::kHsv256:
      return static_cast<uint32_t>(Intermediate::kHsvPlane);
  }
  return 0;
}

Result<FeatureVector> SimpleColorHistogram::ExtractShared(
    const Image& img, PlanContext& ctx) const {
  if (img.empty()) return Status::InvalidArgument("empty image");
  std::vector<double> bins(256, 0.0);
  switch (space_) {
    case HistogramSpace::kGray256: {
      // Quantize(pixel) == RgbToGray(pixel) == the shared gray plane.
      const Image& gray = ctx.Gray();
      const uint8_t* data = gray.data();
      const size_t n = gray.PixelCount();
      for (size_t i = 0; i < n; ++i) bins[data[i]] += 1.0;
      break;
    }
    case HistogramSpace::kHsv256: {
      for (const Hsv& hsv : ctx.HsvPlane()) {
        bins[static_cast<size_t>(QuantizeHsv(hsv))] += 1.0;
      }
      break;
    }
    case HistogramSpace::kRgb256: {
      for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
          bins[static_cast<size_t>(Quantize(img.PixelRgb(x, y)))] += 1.0;
        }
      }
      break;
    }
  }
  return FeatureVector(name(), std::move(bins));
}

}  // namespace vr
