/// \file glcm_texture.h
/// \brief Gray-level co-occurrence matrix texture feature (paper §4.3).

#pragma once

#include "features/feature_vector.h"

namespace vr {

/// \brief GLCM texture statistics.
///
/// Builds the symmetric gray-level co-occurrence matrix at the given
/// pixel offset and emits the paper's six values in order:
/// [pixelCounter, ASM (energy), contrast, correlation, IDM (homogeneity),
/// entropy]. The paper's pseudo-code accumulates correlation with a
/// partial-sum denominator (a transcription bug); we compute the standard
/// normalized correlation in [-1, 1].
class GlcmTexture : public FeatureExtractor {
 public:
  /// \p step is the horizontal co-occurrence offset (the paper's `step`).
  /// \p levels quantizes gray values to reduce matrix sparsity.
  explicit GlcmTexture(int step = 1, int levels = 256);

  FeatureKind kind() const override { return FeatureKind::kGlcm; }
  uint32_t SharedIntermediates() const override;
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  /// Canberra over the five texture stats [kAsm, kStatCount);
  /// pixelCounter is a size artifact, not texture. Canberra is robust
  /// to the very different scales of ASM (~1e-2) and contrast (~1e2).
  CodeMetricSpec code_metric() const override {
    return {.family = CodeMetricFamily::kCanberraL1,
            .canberra_begin = kAsm,
            .canberra_end = kStatCount};
  }

  /// Positions of the stats within the feature vector.
  enum : size_t {
    kPixelCounter = 0,
    kAsm = 1,
    kContrast = 2,
    kCorrelation = 3,
    kIdm = 4,
    kEntropy = 5,
    kStatCount = 6,
  };

 private:
  int step_;
  int levels_;
};

}  // namespace vr
