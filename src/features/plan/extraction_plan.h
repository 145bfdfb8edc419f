/// \file extraction_plan.h
/// \brief Fused single-pass extraction over shared intermediates.
///
/// An ExtractionPlan walks its registered extractors once at
/// construction and collects the shared intermediates each declares
/// (SharedIntermediates()). Per frame each intermediate is computed at
/// most once into a PlanContext's reusable buffers, and every extractor
/// reads the memoized views through ExtractShared. Extractor
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
/// ExtractAll is a fork-join over the bank. A serial prefix computes
/// what several extractors read: the gray plane, its histogram, every
/// other intermediate two or more extractors declare, and the
/// prologue of each split extractor (FeatureExtractor::PartBounds;
/// Gabor's resize, normalization and forward transform). The bank then
/// runs as independent units: each part of a split extractor, then
/// every whole extractor, in registration order. Without helpers the
/// caller runs them in that order; with helpers (util/fork_join.h) the
/// caller and each helper claim units from one index. Each thread runs
/// its units on a context of its own (the caller's is context(); a
/// helper's shares the prefix read-only through
/// PlanContext::BeginFrameSharing), and each unit writes only its own
/// output slot: a whole extractor its FeatureVector, a part its value
/// range. So the output does not depend on who ran what.
///
/// Thread-safety: a plan is single-threaded scratch, apart from the
/// helpers an ExtractAll call forks and joins. The engine keeps a pool
/// of plans (checked out per extraction) instead of sharing one.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "features/feature_vector.h"
#include "features/plan/frame_context.h"
#include "util/fork_join.h"

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

  /// Extracts every registered feature from \p img on the calling
  /// thread. The gray histogram is always materialized (the engine
  /// derives the range-finder bucket from it); it stays readable via
  /// histogram() until the next extraction. An extractor's time in
  /// \p timings excludes any intermediate its unit computed, which
  /// counts under that intermediate instead.
  Result<FeatureMap> ExtractAll(const Image& img,
                                FrameTimings* timings = nullptr) {
    return ExtractAll(img, timings, ForkHelpers{});
  }

  /// ExtractAll with the units forked onto \p helpers (see the file
  /// comment); the output is bit-identical to the serial call. A
  /// helper runs with the caller's FFT kernel pin
  /// (fft_internal::ScopedKernelBuild). With helpers, an extractor's
  /// time in \p timings sums its units over every thread.
  Result<FeatureMap> ExtractAll(const Image& img, FrameTimings* timings,
                                const ForkHelpers& helpers);

  /// Helper tasks the most recent ExtractAll forked (0: it ran on the
  /// caller alone).
  size_t helpers_used() const { return helpers_used_; }

  /// Extracts a single registered kind (the single-feature query path),
  /// materializing only what that extractor declares plus the gray
  /// histogram. InvalidArgument when \p kind is not registered.
  Result<FeatureVector> ExtractOne(const Image& img, FeatureKind kind);

  /// Gray histogram of the most recent Extract* frame.
  const GrayHistogram& histogram() { return context_.Histogram(); }

  /// The caller's context (lane 0 of a fork).
  PlanContext& context() { return context_; }

 private:
  /// One unit of the bank: a whole extractor, or one part of a split
  /// one.
  struct Unit {
    size_t extractor;  ///< index into extractors_
    size_t part;       ///< kWhole, or the part of a split extractor
  };
  static constexpr size_t kWhole = static_cast<size_t>(-1);

  std::vector<const FeatureExtractor*> extractors_;
  /// PartBounds() of each extractor (empty for a whole one).
  std::vector<std::vector<size_t>> bounds_;
  std::vector<Unit> units_;
  /// What the serial prefix materializes: gray, its histogram and every
  /// intermediate two or more extractors declare.
  uint32_t prefix_mask_ = 0;
  PlanContext context_;
  /// One context per helper lane, created when a fork first asks for
  /// that many helpers.
  std::vector<std::unique_ptr<PlanContext>> helper_contexts_;
  size_t helpers_used_ = 0;
};

}  // namespace vr
