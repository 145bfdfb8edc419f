/// \file feature_vector.h
/// \brief Feature vectors and the extractor interface.
///
/// Feature vectors serialize to/from a whitespace-delimited string
/// ("<type> <n> v0 v1 ..."), mirroring the VARCHAR feature columns the
/// paper stores in the KEY_FRAMES table (SCH, GLCM, GABOR, TAMURA).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "imaging/image.h"
#include "similarity/metrics.h"
#include "util/status.h"

namespace vr {

class PlanContext;  // features/plan/frame_context.h

/// The feature families: the paper's seven (Table 1 evaluates them
/// individually).
enum class FeatureKind : int {
  kColorHistogram = 0,
  kGlcm = 1,
  kGabor = 2,
  kTamura = 3,
  kAutoCorrelogram = 4,
  kNaiveSignature = 5,
  kRegionGrowing = 6,
};

inline constexpr int kNumFeatureKinds = 7;

/// Short stable name ("histogram", "glcm", ...).
const char* FeatureKindName(FeatureKind kind);

/// The kind's KEY_FRAMES column: "FEAT_" + FeatureKindName, with the
/// definition's revision appended once its values changed on purpose
/// ("FEAT_gabor2"), so VideoStore::Open refuses a store written under
/// an earlier definition by naming this column.
const char* FeatureColumnName(FeatureKind kind);

/// Parses a FeatureKindName back to the enum.
Result<FeatureKind> FeatureKindFromName(const std::string& name);

/// \brief A typed dense feature vector.
class FeatureVector {
 public:
  FeatureVector() = default;
  FeatureVector(std::string type, std::vector<double> values)
      : type_(std::move(type)), values_(std::move(values)) {}

  const std::string& type() const { return type_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double operator[](size_t i) const { return values_[i]; }

  /// "<type> <n> v0 v1 ... v{n-1}" with round-trippable doubles.
  std::string ToString() const;

  /// Parses the ToString() format.
  static Result<FeatureVector> FromString(const std::string& text);

  bool operator==(const FeatureVector&) const = default;

 private:
  std::string type_;
  std::vector<double> values_;
};

/// Extracted features keyed by family (the row-oriented form used at
/// ingest; retrieval's FeatureMatrix is its columnar transpose).
using FeatureMap = std::map<FeatureKind, FeatureVector>;

/// \brief Interface implemented by each of the paper's extractors.
class FeatureExtractor {
 public:
  virtual ~FeatureExtractor() = default;

  /// Which Table-1 feature family this extractor implements.
  virtual FeatureKind kind() const = 0;

  /// Stable name; matches FeatureKindName(kind()).
  const char* name() const { return FeatureKindName(kind()); }

  /// Computes the feature of \p img: ExtractShared on a one-off
  /// PlanContext. Convenient for a single frame; loops over many frames
  /// should bind one PlanContext (or use an ExtractionPlan) so scratch
  /// and the arena are reused.
  Result<FeatureVector> Extract(const Image& img) const;

  /// Shared intermediates (bits of plan::Intermediate) this extractor
  /// reads from a PlanContext in ExtractShared; 0 when it derives
  /// everything itself. The ExtractionPlan unions these across its
  /// registered extractors and materializes each intermediate exactly
  /// once per frame.
  virtual uint32_t SharedIntermediates() const { return 0; }

  /// The extraction body. \p ctx must be bound to \p img
  /// (PlanContext::BeginFrame); shared intermediates come from it
  /// (memoized per frame) and temporaries may use its arena and the
  /// per-kind scratch slot. The output is pinned bit for bit by the
  /// golden-feature fixture (tests/data/golden_features.txt).
  virtual Result<FeatureVector> ExtractShared(const Image& img,
                                              PlanContext& ctx) const = 0;

  /// \name Split extraction.
  /// An extractor whose body is a serial prologue followed by stretches
  /// of output values that do not depend on each other may expose the
  /// stretches as parts. A forked ExtractionPlan runs the prologue
  /// once, then each part as a unit of its own, possibly on another
  /// thread. The prologue followed by every part in order, all on one
  /// context, must be ExtractShared bit for bit (SplitExtract runs
  /// exactly that).
  /// @{
  /// Value boundaries of the parts: part p writes values
  /// [b[p], b[p + 1]) of the output, and b.back() is its size. Empty
  /// (the default) means the extractor runs whole, via ExtractShared.
  virtual std::vector<size_t> PartBounds() const { return {}; }
  /// The serial prologue on \p ctx, bound to \p img; the parts read
  /// what it leaves in ctx's scratch slot of kind().
  virtual Status ExtractPrologue(const Image& img, PlanContext& ctx) const;
  /// Writes the values of part \p part to \p out. It reads the
  /// prologue from \p prologue and works in \p ctx, which is either
  /// \p prologue itself or another thread's context bound to the same
  /// frame with PlanContext::BeginFrameSharing. It must write nothing
  /// else of \p prologue.
  virtual Status ExtractPart(size_t part, const PlanContext& prologue,
                             PlanContext& ctx, double* out) const;
  /// The prologue and then every part on \p ctx: ExtractShared of a
  /// split extractor.
  Result<FeatureVector> SplitExtract(const Image& img, PlanContext& ctx) const;
  /// @}

  /// Dissimilarity between two vectors produced by this extractor.
  /// Smaller is more similar; must be >= 0 and 0 for identical inputs.
  /// Delegates to DistanceSpan — the two are always bit-identical.
  double Distance(const FeatureVector& a, const FeatureVector& b) const {
    return DistanceSpan(a.values().data(), a.size(), b.values().data(),
                        b.size());
  }

  /// The same dissimilarity over raw value arrays — the columnar path
  /// used when candidate features live in a FeatureMatrix column. It is
  /// MetricDistance(code_metric(), ...): the spec is the distance.
  double DistanceSpan(const double* a, size_t na, const double* b,
                      size_t nb) const {
    return MetricDistance(code_metric(), a, na, b, nb);
  }

  /// The single definition of this extractor's distance
  /// (similarity/metrics.h): DistanceSpan evaluates it exactly, and the
  /// two-stage coarse kernels (similarity/code_kernels.h) score the
  /// same spec over the quantized shadow columns within a proven
  /// bound. The default (CodeMetricFamily::kNone) is L2 with the tail
  /// mass of a length mismatch; a kNone kind opts queries touching it
  /// out of the coarse stage, and they take the exact scan.
  virtual CodeMetricSpec code_metric() const { return {}; }
};

}  // namespace vr
