/// \file scene.h
/// \brief Per-category synthetic scene renderers.
///
/// Substitute for the paper's archive.org corpus (e-learning, sports,
/// cartoon, movies; we add news as a fifth). Each category renders scenes
/// whose color palette, texture granularity, edge orientation statistics
/// and region structure are distinct — exactly the modalities the
/// paper's seven features measure — so per-feature retrieval quality
/// keeps the paper's relative ordering.

#pragma once

#include <memory>

#include "imaging/image.h"
#include "util/rng.h"

namespace vr {

/// Video corpus categories.
enum class VideoCategory : int {
  kELearning = 0,
  kSports = 1,
  kCartoon = 2,
  kMovie = 3,
  kNews = 4,
};

inline constexpr int kNumCategories = 5;

/// Human-readable category name.
const char* CategoryName(VideoCategory category);

/// \brief One shot: deterministic renderer parameterized at construction.
///
/// Render(t) must be a pure function of the construction-time parameters
/// and t, so a scene replays identically.
class Scene {
 public:
  virtual ~Scene() = default;

  /// Renders frame \p t (0-based within the scene) into \p out.
  /// \p out must already have the target size and 3 channels.
  virtual void Render(int t, Image* out) const = 0;
};

/// Creates a random scene of the given category; consumes randomness
/// from \p rng for scene parameters.
std::unique_ptr<Scene> MakeScene(VideoCategory category, int width, int height,
                                 Rng* rng);

}  // namespace vr
