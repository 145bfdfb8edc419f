#include "features/color_signature.h"

#include <algorithm>

#include "similarity/metrics.h"

namespace vr {

ColorSignatureFeature::ColorSignatureFeature(int clusters)
    : clusters_(std::clamp(clusters, 1, 64)) {}

FeatureVector ColorSignatureFeature::Flatten(const Signature& signature) {
  std::vector<double> values;
  values.reserve(signature.size() * 4);
  for (const SignaturePoint& p : signature) {
    values.push_back(p.weight);
    values.push_back(p.position[0]);
    values.push_back(p.position[1]);
    values.push_back(p.position[2]);
  }
  return FeatureVector(FeatureKindName(FeatureKind::kColorSignature),
                       std::move(values));
}

Result<Signature> ColorSignatureFeature::Unflatten(const FeatureVector& fv) {
  if (fv.size() % 4 != 0 || fv.empty()) {
    return Status::Corruption("color signature vector length not 4k");
  }
  Signature out;
  out.reserve(fv.size() / 4);
  for (size_t i = 0; i + 3 < fv.size(); i += 4) {
    SignaturePoint p;
    p.weight = fv[i];
    p.position = {fv[i + 1], fv[i + 2], fv[i + 3]};
    out.push_back(p);
  }
  return out;
}

Result<FeatureVector> ColorSignatureFeature::ExtractShared(
    const Image& img, PlanContext& /*ctx*/) const {
  VR_ASSIGN_OR_RETURN(Signature signature,
                      MakeColorSignature(img, clusters_));
  return Flatten(signature);
}

double ColorSignatureFeature::DistanceSpan(const double* a, size_t na,
                                           const double* b, size_t nb) const {
  // Unflatten wants FeatureVectors; materialize them from the spans. The
  // EMD solver dominates the cost, so the copies don't matter.
  const FeatureVector fa(name(), std::vector<double>(a, a + na));
  const FeatureVector fb(name(), std::vector<double>(b, b + nb));
  Result<Signature> sa = Unflatten(fa);
  Result<Signature> sb = Unflatten(fb);
  if (sa.ok() && sb.ok()) {
    Result<double> emd = EmdSignatureDistance(*sa, *sb);
    if (emd.ok()) return std::max(0.0, *emd);
  }
  // Malformed vectors fall back to the default vector distance so
  // ranking still degrades gracefully instead of erroring mid-query.
  return MetricDistance({}, a, na, b, nb);
}

}  // namespace vr
