#include "features/plan/frame_context.h"

#include "util/stopwatch.h"

namespace vr {

namespace {

uint64_t ToNanos(double ms) { return static_cast<uint64_t>(ms * 1e6); }

size_t BitIndex(Intermediate which) {
  uint32_t v = static_cast<uint32_t>(which);
  size_t i = 0;
  while (v > 1) {
    v >>= 1;
    ++i;
  }
  return i;
}

}  // namespace

const char* IntermediateName(uint32_t bit) {
  switch (bit) {
    case 0:
      return "gray";
    case 1:
      return "gray_histogram";
    case 2:
      return "hsv_plane";
    default:
      return "unknown";
  }
}

PlanContext::PlanContext() : arena_(1u << 16) {}

void PlanContext::BeginFrame(const Image& img) {
  frame_ = &img;
  gray_view_ = nullptr;
  histogram_view_ = nullptr;
  hsv_view_ = nullptr;
  arena_.Reset();
  intermediate_ns_.fill(0);
}

void PlanContext::BeginFrameSharing(const PlanContext& parent) {
  BeginFrame(*parent.frame_);
  gray_view_ = parent.gray_view_;
  histogram_view_ = parent.histogram_view_;
  hsv_view_ = parent.hsv_view_;
}

const Image& PlanContext::Gray() {
  if (gray_view_ == nullptr) {
    Stopwatch timer;
    if (frame_->channels() == 1) {
      gray_view_ = frame_;
    } else {
      // Same conversion ToGray performs, written into the reusable
      // plane (re-sized only when the frame geometry changes).
      if (gray_.width() != frame_->width() ||
          gray_.height() != frame_->height() || gray_.channels() != 1) {
        gray_ = Image(frame_->width(), frame_->height(), 1);
      }
      RgbToGrayPlane(frame_->data(), frame_->PixelCount(), gray_.data());
      gray_view_ = &gray_;
    }
    intermediate_ns_[BitIndex(Intermediate::kGray)] +=
        ToNanos(timer.ElapsedMillis());
  }
  return *gray_view_;
}

const GrayHistogram& PlanContext::Histogram() {
  if (histogram_view_ == nullptr) {
    const Image& gray = Gray();
    Stopwatch timer;
    // Identical bins to ComputeGrayHistogram(frame): that helper also
    // reduces RGB pixels through RgbToGray before counting.
    histogram_ = GrayHistogram{};
    const uint8_t* data = gray.data();
    const size_t n = gray.PixelCount();
    for (size_t i = 0; i < n; ++i) ++histogram_.bins[data[i]];
    histogram_view_ = &histogram_;
    intermediate_ns_[BitIndex(Intermediate::kGrayHistogram)] +=
        ToNanos(timer.ElapsedMillis());
  }
  return *histogram_view_;
}

const std::vector<Hsv>& PlanContext::HsvPlane() {
  if (hsv_view_ == nullptr) {
    Stopwatch timer;
    const Image& in = *frame_;
    hsv_.clear();
    hsv_.reserve(in.PixelCount());
    for (int y = 0; y < in.height(); ++y) {
      for (int x = 0; x < in.width(); ++x) {
        hsv_.push_back(RgbToHsv(in.PixelRgb(x, y)));
      }
    }
    hsv_view_ = &hsv_;
    intermediate_ns_[BitIndex(Intermediate::kHsvPlane)] +=
        ToNanos(timer.ElapsedMillis());
  }
  return *hsv_view_;
}

void PlanContext::Materialize(uint32_t mask) {
  if (mask & static_cast<uint32_t>(Intermediate::kGray)) Gray();
  if (mask & static_cast<uint32_t>(Intermediate::kGrayHistogram)) Histogram();
  if (mask & static_cast<uint32_t>(Intermediate::kHsvPlane)) HsvPlane();
}

}  // namespace vr
