#include "features/plan/extraction_plan.h"

#include "util/stopwatch.h"

namespace vr {

namespace {
uint64_t ToNanos(double ms) { return static_cast<uint64_t>(ms * 1e6); }
}  // namespace

ExtractionPlan::ExtractionPlan(
    std::vector<const FeatureExtractor*> extractors) {
  extractors_.reserve(extractors.size());
  for (const FeatureExtractor* e : extractors) {
    if (e == nullptr) continue;
    extractors_.push_back(e);
    union_mask_ |= e->SharedIntermediates();
  }
  // The engine buckets every extracted frame through the range finder,
  // so the histogram intermediate is part of every plan.
  union_mask_ |= static_cast<uint32_t>(Intermediate::kGray) |
                 static_cast<uint32_t>(Intermediate::kGrayHistogram);
}

Result<FeatureMap> ExtractionPlan::ExtractAll(const Image& img,
                                              FrameTimings* timings) {
  if (img.empty()) return Status::InvalidArgument("empty image");
  context_.BeginFrame(img);
  context_.Materialize(union_mask_);
  FeatureMap out;
  for (const FeatureExtractor* extractor : extractors_) {
    Stopwatch timer;
    VR_ASSIGN_OR_RETURN(FeatureVector fv, extractor->ExtractShared(img, context_));
    if (timings != nullptr) {
      timings->extractor_ns[static_cast<size_t>(extractor->kind())] +=
          ToNanos(timer.ElapsedMillis());
    }
    out.emplace(extractor->kind(), std::move(fv));
  }
  if (timings != nullptr) {
    for (size_t b = 0; b < kNumIntermediates; ++b) {
      timings->intermediate_ns[b] += context_.intermediate_ns()[b];
    }
  }
  return out;
}

Result<FeatureVector> ExtractionPlan::ExtractOne(const Image& img,
                                                 FeatureKind kind) {
  if (img.empty()) return Status::InvalidArgument("empty image");
  for (const FeatureExtractor* extractor : extractors_) {
    if (extractor->kind() != kind) continue;
    context_.BeginFrame(img);
    context_.Materialize(extractor->SharedIntermediates() |
                         static_cast<uint32_t>(Intermediate::kGray) |
                         static_cast<uint32_t>(Intermediate::kGrayHistogram));
    return extractor->ExtractShared(img, context_);
  }
  return Status::InvalidArgument(std::string("feature not registered: ") +
                                 FeatureKindName(kind));
}

}  // namespace vr
