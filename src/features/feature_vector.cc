#include "features/feature_vector.h"

#include <cmath>

#include "features/plan/frame_context.h"
#include "util/string_util.h"

namespace vr {

const char* FeatureKindName(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::kColorHistogram:
      return "histogram";
    case FeatureKind::kGlcm:
      return "glcm";
    case FeatureKind::kGabor:
      return "gabor";
    case FeatureKind::kTamura:
      return "tamura";
    case FeatureKind::kAutoCorrelogram:
      return "acc";
    case FeatureKind::kNaiveSignature:
      return "naive";
    case FeatureKind::kRegionGrowing:
      return "regions";
    case FeatureKind::kEdgeHistogram:
      return "edgehist";
    case FeatureKind::kColorSignature:
      return "colorsig";
  }
  return "unknown";
}

const char* FeatureColumnName(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::kColorHistogram:
      return "FEAT_histogram";
    case FeatureKind::kGlcm:
      return "FEAT_glcm";
    case FeatureKind::kGabor:
      return "FEAT_gabor2";  // v2: cropped low-frequency scales, float |.|
    case FeatureKind::kTamura:
      return "FEAT_tamura";
    case FeatureKind::kAutoCorrelogram:
      return "FEAT_acc";
    case FeatureKind::kNaiveSignature:
      return "FEAT_naive";
    case FeatureKind::kRegionGrowing:
      return "FEAT_regions";
    case FeatureKind::kEdgeHistogram:
      return "FEAT_edgehist";
    case FeatureKind::kColorSignature:
      return "FEAT_colorsig";
  }
  return "FEAT_unknown";
}

Result<FeatureKind> FeatureKindFromName(const std::string& name) {
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    const FeatureKind kind = static_cast<FeatureKind>(i);
    if (name == FeatureKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown feature kind: " + name);
}

std::string FeatureVector::ToString() const {
  std::string out = type_;
  out += ' ';
  out += std::to_string(values_.size());
  for (double v : values_) {
    out += ' ';
    out += FormatDouble(v);
  }
  return out;
}

Result<FeatureVector> FeatureVector::FromString(const std::string& text) {
  const std::vector<std::string> tokens = SplitWhitespace(text);
  if (tokens.size() < 2) {
    return Status::Corruption("feature string too short");
  }
  VR_ASSIGN_OR_RETURN(int64_t n, ParseInt64(tokens[1]));
  if (n < 0 || static_cast<size_t>(n) != tokens.size() - 2) {
    return Status::Corruption(StringPrintf(
        "feature string declares %lld values but carries %zu",
        static_cast<long long>(n), tokens.size() - 2));
  }
  std::vector<double> values(static_cast<size_t>(n));
  for (size_t i = 0; i < values.size(); ++i) {
    VR_ASSIGN_OR_RETURN(values[i], ParseDouble(tokens[i + 2]));
  }
  return FeatureVector(tokens[0], std::move(values));
}

double FeatureVector::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double FeatureVector::Norm() const {
  double s = 0.0;
  for (double v : values_) s += v * v;
  return std::sqrt(s);
}

void FeatureVector::NormalizeL1() {
  const double s = Sum();
  if (s == 0.0) return;
  for (double& v : values_) v /= s;
}

Result<FeatureVector> FeatureExtractor::Extract(const Image& img) const {
  PlanContext ctx;
  ctx.BeginFrame(img);
  return ExtractShared(img, ctx);
}

Status FeatureExtractor::ExtractPrologue(const Image&, PlanContext&) const {
  return Status::NotImplemented(std::string(name()) + " has no parts");
}

Status FeatureExtractor::ExtractPart(size_t, const PlanContext&, PlanContext&,
                                     double*) const {
  return Status::NotImplemented(std::string(name()) + " has no parts");
}

Result<FeatureVector> FeatureExtractor::SplitExtract(const Image& img,
                                                     PlanContext& ctx) const {
  const std::vector<size_t> bounds = PartBounds();
  VR_RETURN_NOT_OK(ExtractPrologue(img, ctx));
  std::vector<double> values(bounds.empty() ? 0 : bounds.back());
  for (size_t part = 0; part + 1 < bounds.size(); ++part) {
    VR_RETURN_NOT_OK(
        ExtractPart(part, ctx, ctx, values.data() + bounds[part]));
  }
  return FeatureVector(name(), std::move(values));
}

double FeatureExtractor::DistanceSpan(const double* a, size_t na,
                                      const double* b, size_t nb) const {
  return MetricDistance(code_metric(), a, na, b, nb);
}

}  // namespace vr
