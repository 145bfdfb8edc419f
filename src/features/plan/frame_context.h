/// \file frame_context.h
/// \brief Shared per-frame intermediates for the fused extraction plan.
///
/// Several extractors read the same intermediates of a frame: the gray
/// plane (GLCM, Gabor, Tamura, region growing), its histogram (region
/// growing's threshold and the range finder's bucket) and the per-pixel
/// HSV plane (the auto correlogram, on frames within its 256 px
/// working cap). PlanContext computes each at most once per frame and
/// hands every consumer the same memoized view.
///
/// Each producer computes exactly what the standalone imaging helper
/// would (Gray() is ToGray, Histogram() is ComputeGrayHistogram of
/// it), so an extractor's output does not depend on which other
/// extractors share the context. Every extraction runs on one:
/// FeatureExtractor::Extract binds a one-off context per call,
/// ExtractionPlan and KeyFrameExtractor keep one across frames.
/// tests/data/golden_features.txt pins the results.
///
/// A forked extraction runs units on several threads, each on a context
/// of its own: BeginFrameSharing binds a helper's context to the
/// caller's frame and lends it the intermediates the caller has already
/// computed, read-only. Whatever else a unit needs, its own context
/// computes and keeps.
///
/// Thread-safety: none; a PlanContext belongs to one owner and one
/// extraction uses it at a time (the engine's plan pool enforces this
/// for its plans). A context whose intermediates are lent out must not
/// start another frame while the borrower still reads them. The
/// REQUIRES-style contract is documented in DESIGN.md.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "features/feature_vector.h"
#include "features/plan/arena.h"
#include "imaging/color.h"
#include "imaging/histogram.h"
#include "imaging/image.h"

namespace vr {

/// Intermediates an extractor can declare (and PlanContext memoizes).
/// Values are bit positions for the plan's union mask.
enum class Intermediate : uint32_t {
  kGray = 1u << 0,           ///< u8 gray plane (BT.601, rounded)
  kGrayHistogram = 1u << 1,  ///< 256-bin histogram of the gray plane
  kHsvPlane = 1u << 2,       ///< per-pixel RgbToHsv, row-major
};

inline constexpr uint32_t kNumIntermediates = 3;

/// Stable name of the intermediate at bit position \p bit.
const char* IntermediateName(uint32_t bit);

/// \brief Memoized shared intermediates plus scratch for one frame.
class PlanContext {
 public:
  PlanContext();

  /// Rebinds the context to \p img: memos are cleared, the arena cursor
  /// rewinds (capacity kept), per-extractor scratch survives. \p img
  /// must outlive the frame.
  void BeginFrame(const Image& img);

  /// Binds the context to \p parent's frame like BeginFrame, and lends
  /// it every intermediate \p parent has computed so far: this context
  /// then returns \p parent's planes for those, read-only, and computes
  /// the rest itself. \p parent must not compute more or start another
  /// frame while this context is in use.
  void BeginFrameSharing(const PlanContext& parent);

  /// The frame bound by BeginFrame.
  const Image& frame() const { return *frame_; }

  /// \name Memoized intermediates.
  /// Each computes on first access per frame (timed into
  /// intermediate_ns) and returns the cached plane afterwards.
  /// @{
  const Image& Gray();
  const GrayHistogram& Histogram();
  const std::vector<Hsv>& HsvPlane();
  /// @}

  /// Eagerly computes every intermediate in \p mask (bits of
  /// Intermediate) — the plan calls this once per frame with the union
  /// of every registered extractor's declaration.
  void Materialize(uint32_t mask);

  /// Per-frame scratch allocator for extractor temporaries.
  Arena& arena() { return arena_; }

  /// \brief Base for per-extractor persistent state (filter banks, FFT
  /// plans, reusable rasters). Survives BeginFrame, dies with the
  /// context.
  struct Scratch {
    virtual ~Scratch() = default;
  };

  /// The persistent scratch slot of \p kind, created on first use.
  template <typename T>
  T* ScratchFor(FeatureKind kind) {
    std::unique_ptr<Scratch>& slot = scratch_[static_cast<size_t>(kind)];
    if (slot == nullptr) slot = std::make_unique<T>();
    return static_cast<T*>(slot.get());
  }

  /// Read-only view of the scratch slot of \p kind, which an earlier
  /// ScratchFor<T> must have created (an extractor's prologue, read by
  /// its parts on other contexts).
  template <typename T>
  const T& ScratchOf(FeatureKind kind) const {
    return static_cast<const T&>(*scratch_[static_cast<size_t>(kind)]);
  }

  /// Nanoseconds spent computing each intermediate this frame, indexed
  /// by bit position.
  const std::array<uint64_t, kNumIntermediates>& intermediate_ns() const {
    return intermediate_ns_;
  }

 private:
  const Image* frame_ = nullptr;

  /// The memo: each view is null until its intermediate is computed for
  /// the frame, then points at this context's plane below, at the frame
  /// itself (Gray() of a single-channel frame, as ToGray aliases it) or
  /// at a parent's plane (BeginFrameSharing).
  const Image* gray_view_ = nullptr;
  const GrayHistogram* histogram_view_ = nullptr;
  const std::vector<Hsv>* hsv_view_ = nullptr;

  Image gray_;
  GrayHistogram histogram_;
  std::vector<Hsv> hsv_;

  Arena arena_;
  std::array<std::unique_ptr<Scratch>, kNumFeatureKinds> scratch_;
  std::array<uint64_t, kNumIntermediates> intermediate_ns_{};
};

}  // namespace vr
