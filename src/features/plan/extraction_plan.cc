#include "features/plan/extraction_plan.h"

#include <optional>

#include "imaging/fft.h"
#include "util/stopwatch.h"

namespace vr {

namespace {

uint64_t ToNanos(double ms) { return static_cast<uint64_t>(ms * 1e6); }

uint64_t IntermediateTotal(const PlanContext& ctx) {
  uint64_t total = 0;
  for (uint64_t ns : ctx.intermediate_ns()) total += ns;
  return total;
}

}  // namespace

ExtractionPlan::ExtractionPlan(
    std::vector<const FeatureExtractor*> extractors) {
  extractors_.reserve(extractors.size());
  std::array<int, kNumIntermediates> readers{};
  for (const FeatureExtractor* e : extractors) {
    if (e == nullptr) continue;
    extractors_.push_back(e);
    bounds_.push_back(e->PartBounds());
    const uint32_t mask = e->SharedIntermediates();
    for (uint32_t b = 0; b < kNumIntermediates; ++b) {
      if (mask & (1u << b)) ++readers[b];
    }
  }
  // The engine buckets every extracted frame through the range finder,
  // so the histogram intermediate is part of every plan.
  const uint32_t always = static_cast<uint32_t>(Intermediate::kGray) |
                          static_cast<uint32_t>(Intermediate::kGrayHistogram);
  prefix_mask_ = always;
  for (uint32_t b = 0; b < kNumIntermediates; ++b) {
    if (readers[b] >= 2) prefix_mask_ |= 1u << b;
  }
  // Parts first: a split extractor is split because it is the largest,
  // so the lanes start on its parts and the small units fill in after.
  for (size_t e = 0; e < extractors_.size(); ++e) {
    for (size_t part = 0; part + 1 < bounds_[e].size(); ++part) {
      units_.push_back({e, part});
    }
  }
  for (size_t e = 0; e < extractors_.size(); ++e) {
    if (bounds_[e].empty()) units_.push_back({e, kWhole});
  }
}

Result<FeatureMap> ExtractionPlan::ExtractAll(const Image& img,
                                              FrameTimings* timings,
                                              const ForkHelpers& helpers) {
  helpers_used_ = 0;
  if (img.empty()) return Status::InvalidArgument("empty image");
  context_.BeginFrame(img);
  context_.Materialize(prefix_mask_);
  std::vector<FeatureVector> out(extractors_.size());
  std::vector<uint64_t> prologue_ns(extractors_.size(), 0);
  for (size_t e = 0; e < extractors_.size(); ++e) {
    if (bounds_[e].empty()) continue;
    Stopwatch timer;
    VR_RETURN_NOT_OK(extractors_[e]->ExtractPrologue(img, context_));
    prologue_ns[e] = ToNanos(timer.ElapsedMillis());
    out[e] = FeatureVector(extractors_[e]->name(),
                           std::vector<double>(bounds_[e].back()));
  }

  const size_t lanes = 1 + (helpers.pool != nullptr ? helpers.count : 0);
  while (helper_contexts_.size() + 1 < lanes) {
    helper_contexts_.push_back(std::make_unique<PlanContext>());
  }
  for (size_t lane = 1; lane < lanes; ++lane) {
    helper_contexts_[lane - 1]->BeginFrameSharing(context_);
  }
  // The kernel pin is thread-local; a helper runs under the caller's.
  const fft_internal::Kernels* pin = fft_internal::PinnedKernels();
  std::vector<Status> unit_status(units_.size());
  std::vector<uint64_t> unit_ns(units_.size(), 0);
  helpers_used_ = ForkJoin(helpers, units_.size(), [&](size_t u, size_t lane) {
    std::optional<fft_internal::ScopedKernelBuild> carried;
    if (lane != 0) carried.emplace(pin);
    PlanContext& ctx = lane == 0 ? context_ : *helper_contexts_[lane - 1];
    // A unit's temporaries die with it, so each unit starts on a rewound
    // arena: a context's arena holds its largest unit, not their sum.
    ctx.arena().Reset();
    const Unit& unit = units_[u];
    const FeatureExtractor* extractor = extractors_[unit.extractor];
    const uint64_t inner_before = IntermediateTotal(ctx);
    Stopwatch timer;
    if (unit.part == kWhole) {
      Result<FeatureVector> fv = extractor->ExtractShared(img, ctx);
      if (fv.ok()) {
        out[unit.extractor] = std::move(*fv);
      } else {
        unit_status[u] = fv.status();
      }
    } else {
      double* values = out[unit.extractor].values().data() +
                       bounds_[unit.extractor][unit.part];
      unit_status[u] = extractor->ExtractPart(unit.part, context_, ctx, values);
    }
    const uint64_t elapsed = ToNanos(timer.ElapsedMillis());
    const uint64_t inner = IntermediateTotal(ctx) - inner_before;
    unit_ns[u] = elapsed > inner ? elapsed - inner : 0;
  });
  for (const Status& status : unit_status) VR_RETURN_NOT_OK(status);

  FeatureMap map;
  for (size_t e = 0; e < extractors_.size(); ++e) {
    map.emplace(extractors_[e]->kind(), std::move(out[e]));
  }
  if (timings != nullptr) {
    for (size_t e = 0; e < extractors_.size(); ++e) {
      timings->extractor_ns[static_cast<size_t>(extractors_[e]->kind())] +=
          prologue_ns[e];
    }
    for (size_t u = 0; u < units_.size(); ++u) {
      const FeatureKind kind = extractors_[units_[u].extractor]->kind();
      timings->extractor_ns[static_cast<size_t>(kind)] += unit_ns[u];
    }
    for (size_t lane = 0; lane < lanes; ++lane) {
      const PlanContext& ctx =
          lane == 0 ? context_ : *helper_contexts_[lane - 1];
      for (size_t b = 0; b < kNumIntermediates; ++b) {
        timings->intermediate_ns[b] += ctx.intermediate_ns()[b];
      }
    }
  }
  return map;
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
