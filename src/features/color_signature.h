/// \file color_signature.h
/// \brief Color-signature feature with EMD distance (extension).
///
/// Wraps the k-means color signature + exact signature EMD
/// (similarity/emd_signature.h) in the FeatureExtractor interface, so
/// Rubner-style EMD retrieval plugs into the engine, the store and the
/// combined scorer like any other feature. The vector layout flattens
/// the signature as [w, r, g, b] per cluster.

#pragma once

#include "features/feature_vector.h"
#include "similarity/emd_signature.h"

namespace vr {

/// \brief k-means color signature; distances are exact EMD.
class ColorSignatureFeature : public FeatureExtractor {
 public:
  explicit ColorSignatureFeature(int clusters = 8);

  FeatureKind kind() const override { return FeatureKind::kColorSignature; }
  Result<FeatureVector> ExtractShared(const Image& img,
                                      PlanContext& ctx) const override;
  double DistanceSpan(const double* a, size_t na, const double* b,
                      size_t nb) const override;

  /// Flattens a signature into the vector layout.
  static FeatureVector Flatten(const Signature& signature);

  /// Parses the vector layout back into a signature; Corruption if the
  /// length is not a multiple of 4.
  static Result<Signature> Unflatten(const FeatureVector& fv);

 private:
  int clusters_;
};

}  // namespace vr
