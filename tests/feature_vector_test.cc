#include "features/feature_vector.h"

#include <gtest/gtest.h>

#include <string>

namespace vr {
namespace {

TEST(FeatureVectorTest, ToStringFromStringRoundTrip) {
  FeatureVector fv("glcm", {1.5, -2.25, 0.0, 6.821227228133351});
  Result<FeatureVector> back = FeatureVector::FromString(fv.ToString());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, fv);
}

TEST(FeatureVectorTest, StringFormatMatchesPaperStyle) {
  FeatureVector fv("gabor", {1.0, 2.0});
  EXPECT_EQ(fv.ToString(), "gabor 2 1 2");
}

TEST(FeatureVectorTest, FromStringReadsFixedAndScientificSpellings) {
  // Rows written before the shortest-round-trip formatter spell small
  // values in fixed notation; both spellings must parse identically.
  Result<FeatureVector> fixed = FeatureVector::FromString("gabor 2 0.0001 1");
  Result<FeatureVector> sci = FeatureVector::FromString("gabor 2 1e-04 1");
  ASSERT_TRUE(fixed.ok()) << fixed.status();
  ASSERT_TRUE(sci.ok()) << sci.status();
  EXPECT_EQ((*fixed)[0], 0.0001);
  EXPECT_EQ(*fixed, *sci);
}

TEST(FeatureVectorTest, FromStringRejectsBadCounts) {
  EXPECT_FALSE(FeatureVector::FromString("glcm 3 1 2").ok());
  EXPECT_FALSE(FeatureVector::FromString("glcm 1 1 2").ok());
  EXPECT_FALSE(FeatureVector::FromString("glcm").ok());
  EXPECT_FALSE(FeatureVector::FromString("").ok());
  EXPECT_FALSE(FeatureVector::FromString("glcm x 1").ok());
  EXPECT_FALSE(FeatureVector::FromString("glcm 1 abc").ok());
}

TEST(FeatureVectorTest, EmptyVectorRoundTrips) {
  FeatureVector fv("acc", {});
  Result<FeatureVector> back = FeatureVector::FromString(fv.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  EXPECT_EQ(back->type(), "acc");
}

TEST(FeatureKindTest, NamesRoundTrip) {
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    const FeatureKind kind = static_cast<FeatureKind>(i);
    Result<FeatureKind> back = FeatureKindFromName(FeatureKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(FeatureKindFromName("nonsense").ok());
}

TEST(FeatureKindTest, ColumnNamesAreFeatNamePlusRevision) {
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    const FeatureKind kind = static_cast<FeatureKind>(i);
    const std::string prefix = std::string("FEAT_") + FeatureKindName(kind);
    const std::string column = FeatureColumnName(kind);
    ASSERT_EQ(column.rfind(prefix, 0), 0u) << column;
    const std::string revision = column.substr(prefix.size());
    EXPECT_EQ(revision.find_first_not_of("0123456789"), std::string::npos)
        << column;
  }
  // Gabor's definition changed once: v1 stores carry FEAT_gabor.
  EXPECT_STREQ(FeatureColumnName(FeatureKind::kGabor), "FEAT_gabor2");
}

class IdentityExtractor : public FeatureExtractor {
 public:
  FeatureKind kind() const override { return FeatureKind::kColorHistogram; }
  Result<FeatureVector> ExtractShared(const Image&,
                                      PlanContext&) const override {
    return FeatureVector("id", {});
  }
};

TEST(FeatureExtractorTest, DefaultDistanceIsL2) {
  IdentityExtractor e;
  FeatureVector a("x", {0.0, 3.0});
  FeatureVector b("x", {4.0, 0.0});
  EXPECT_DOUBLE_EQ(e.Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(e.Distance(a, a), 0.0);
}

TEST(FeatureExtractorTest, DefaultDistanceHandlesLengthMismatch) {
  IdentityExtractor e;
  FeatureVector a("x", {1.0});
  FeatureVector b("x", {1.0, 2.0});
  EXPECT_DOUBLE_EQ(e.Distance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(e.Distance(b, a), 2.0);
}

}  // namespace
}  // namespace vr
