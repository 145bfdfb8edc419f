/// \file extraction_plan.h
/// \brief Fused single-pass extraction over shared intermediates.
///
/// An ExtractionPlan walks its registered extractors once at
/// construction, collects the shared intermediates each declares
/// (SharedIntermediates()), and per frame materializes that union
/// exactly once into the PlanContext's reusable buffers before feeding
/// every extractor the memoized views through ExtractShared. Extractor
/// temporaries come from the context's arena and per-kind scratch
/// slots, so the steady state extracts without heap allocation in the
/// fused paths.
///
/// The plan's output is bit-identical to each extractor's Extract on
/// the same frame: both run the one ExtractShared body, and a shared
/// intermediate equals what the extractor would compute alone. The
/// golden-feature fixture (tests/data/golden_features.txt) pins every
/// registered kind.
///
/// Thread-safety: a plan is single-threaded scratch. The engine keeps a
/// pool of plans (checked out per extraction) instead of sharing one.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "features/feature_vector.h"
#include "features/plan/frame_context.h"

namespace vr {

/// \brief One-pass fused extraction pipeline.
class ExtractionPlan {
 public:
  /// Cost breakdown, added to by ExtractAll when requested: every field
  /// accumulates, so one struct passed over several frames sums them
  /// (pass a fresh one for a single frame's figures).
  struct FrameTimings {
    /// Time inside each extractor's fused path (excludes shared
    /// intermediates), indexed by FeatureKind.
    std::array<uint64_t, kNumFeatureKinds> extractor_ns{};
    /// Time producing each shared intermediate, indexed by
    /// Intermediate bit position.
    std::array<uint64_t, kNumIntermediates> intermediate_ns{};
  };

  /// Registers \p extractors (non-owning; they must outlive the plan;
  /// null entries are ignored) and unions their intermediate
  /// declarations.
  explicit ExtractionPlan(std::vector<const FeatureExtractor*> extractors);

  /// Extracts every registered feature from \p img in registration
  /// order. The gray histogram is always materialized (the engine
  /// derives the range-finder bucket from it); it stays readable via
  /// histogram() until the next extraction.
  Result<FeatureMap> ExtractAll(const Image& img,
                                FrameTimings* timings = nullptr);

  /// Extracts a single registered kind (the single-feature query path),
  /// materializing only what that extractor declares plus the gray
  /// histogram. InvalidArgument when \p kind is not registered.
  Result<FeatureVector> ExtractOne(const Image& img, FeatureKind kind);

  /// Gray histogram of the most recent Extract* frame.
  const GrayHistogram& histogram() { return context_.Histogram(); }

  /// Union of the registered extractors' intermediate declarations.
  uint32_t intermediate_mask() const { return union_mask_; }

  PlanContext& context() { return context_; }

 private:
  std::vector<const FeatureExtractor*> extractors_;
  uint32_t union_mask_ = 0;
  PlanContext context_;
};

}  // namespace vr
