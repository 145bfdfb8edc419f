#include "features/extractor_registry.h"

#include "features/auto_correlogram.h"
#include "features/color_histogram.h"
#include "features/gabor_texture.h"
#include "features/glcm_texture.h"
#include "features/naive_signature.h"
#include "features/region_growing.h"
#include "features/tamura_texture.h"

namespace vr {

std::unique_ptr<FeatureExtractor> MakeExtractor(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::kColorHistogram:
      return std::make_unique<SimpleColorHistogram>();
    case FeatureKind::kGlcm:
      return std::make_unique<GlcmTexture>();
    case FeatureKind::kGabor:
      return std::make_unique<GaborTexture>();
    case FeatureKind::kTamura:
      return std::make_unique<TamuraTexture>();
    case FeatureKind::kAutoCorrelogram:
      return std::make_unique<AutoColorCorrelogram>();
    case FeatureKind::kNaiveSignature:
      return std::make_unique<NaiveSignature>();
    case FeatureKind::kRegionGrowing:
      return std::make_unique<SimpleRegionGrowing>();
  }
  return nullptr;
}

std::vector<std::unique_ptr<FeatureExtractor>> MakeAllExtractors() {
  std::vector<std::unique_ptr<FeatureExtractor>> out;
  out.reserve(kNumFeatureKinds);
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    out.push_back(MakeExtractor(static_cast<FeatureKind>(i)));
  }
  return out;
}

const std::vector<FeatureKind>& Table1FeatureKinds() {
  // The paper's Table-1 column order: GLCM, Gabor, Tamura, Histogram,
  // Autocorrelogram, Simple Region Growing (then Combined).
  static const std::vector<FeatureKind> kKinds = {
      FeatureKind::kGlcm,           FeatureKind::kGabor,
      FeatureKind::kTamura,         FeatureKind::kColorHistogram,
      FeatureKind::kAutoCorrelogram, FeatureKind::kRegionGrowing,
  };
  return kKinds;
}

}  // namespace vr
