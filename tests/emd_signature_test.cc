#include "similarity/emd_signature.h"

#include <gtest/gtest.h>

#include "imaging/draw.h"
#include "util/rng.h"

namespace vr {
namespace {

SignaturePoint Point(double w, double x, double y, double z) {
  SignaturePoint p;
  p.weight = w;
  p.position = {x, y, z};
  return p;
}

Signature RandomSignature(Rng* rng, int n) {
  Signature s;
  for (int i = 0; i < n; ++i) {
    s.push_back(Point(rng->UniformDouble(0.1, 1.0),
                      rng->UniformDouble(0, 1), rng->UniformDouble(0, 1),
                      rng->UniformDouble(0, 1)));
  }
  return s;
}

TEST(EmdSignatureTest, IdenticalSignaturesHaveZeroDistance) {
  const Signature s = {Point(0.5, 0, 0, 0), Point(0.5, 1, 1, 1)};
  EXPECT_NEAR(EmdSignatureDistance(s, s).value(), 0.0, 1e-9);
}

TEST(EmdSignatureTest, SinglePointPairIsGroundDistance) {
  const Signature a = {Point(1.0, 0, 0, 0)};
  const Signature b = {Point(1.0, 3, 4, 0)};
  EXPECT_NEAR(EmdSignatureDistance(a, b).value(), 5.0, 1e-9);
}

TEST(EmdSignatureTest, SplitsFlowOptimally) {
  // One unit at the origin must split 50/50 to two sinks at distance
  // 1 and 2: cost = 0.5 * 1 + 0.5 * 2 = 1.5.
  const Signature a = {Point(1.0, 0, 0, 0)};
  const Signature b = {Point(0.5, 1, 0, 0), Point(0.5, 2, 0, 0)};
  EXPECT_NEAR(EmdSignatureDistance(a, b).value(), 1.5, 1e-9);
}

TEST(EmdSignatureTest, ChoosesCheapAssignment) {
  // Two sources and two sinks arranged so the crossing assignment is
  // costlier: optimal pairs each source with its nearby sink.
  const Signature a = {Point(0.5, 0, 0, 0), Point(0.5, 10, 0, 0)};
  const Signature b = {Point(0.5, 1, 0, 0), Point(0.5, 9, 0, 0)};
  EXPECT_NEAR(EmdSignatureDistance(a, b).value(), 1.0, 1e-9);
}

TEST(EmdSignatureTest, WeightsAreNormalized) {
  const Signature a = {Point(2.0, 0, 0, 0)};
  const Signature b = {Point(8.0, 1, 0, 0)};
  EXPECT_NEAR(EmdSignatureDistance(a, b).value(), 1.0, 1e-9);
}

TEST(EmdSignatureTest, RejectsEmptyOrMassless) {
  const Signature good = {Point(1.0, 0, 0, 0)};
  EXPECT_FALSE(EmdSignatureDistance({}, good).ok());
  EXPECT_FALSE(EmdSignatureDistance(good, {Point(0.0, 1, 1, 1)}).ok());
}

TEST(EmdSignatureTest, MetricAxiomsOnRandomSignatures) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Signature a = RandomSignature(&rng, 5);
    const Signature b = RandomSignature(&rng, 7);
    const Signature c = RandomSignature(&rng, 4);
    const double ab = EmdSignatureDistance(a, b).value();
    const double ba = EmdSignatureDistance(b, a).value();
    const double ac = EmdSignatureDistance(a, c).value();
    const double bc = EmdSignatureDistance(b, c).value();
    EXPECT_GE(ab, -1e-9);
    EXPECT_NEAR(ab, ba, 1e-6);
    EXPECT_LE(ac, ab + bc + 1e-6);  // triangle (equal-mass EMD is a metric)
    EXPECT_NEAR(EmdSignatureDistance(a, a).value(), 0.0, 1e-9);
  }
}

TEST(EmdSignatureTest, LowerBoundHolds) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const Signature a = RandomSignature(&rng, 6);
    const Signature b = RandomSignature(&rng, 6);
    EXPECT_LE(EmdSignatureLowerBound(a, b).value(),
              EmdSignatureDistance(a, b).value() + 1e-9);
  }
}

TEST(EmdSignatureTest, MatchesBruteForceAgainstHungarianCase) {
  // Equal weights, same sizes: EMD = optimal assignment / n. Check a
  // 3-point instance against the enumerated optimum.
  const Signature a = {Point(1, 0, 0, 0), Point(1, 1, 0, 0),
                       Point(1, 2, 0, 0)};
  const Signature b = {Point(1, 0.5, 0, 0), Point(1, 1.5, 0, 0),
                       Point(1, 2.5, 0, 0)};
  // Optimal matching is the identity: each moves 0.5; mean cost 0.5.
  EXPECT_NEAR(EmdSignatureDistance(a, b).value(), 0.5, 1e-9);
}

TEST(ColorSignatureTest, SolidColorIsOneCluster) {
  Image img(32, 32, 3);
  img.Fill({255, 0, 0});
  const Signature s = MakeColorSignature(img, 8).value();
  // All mass collapses onto one effective cluster position.
  double total = 0;
  for (const SignaturePoint& p : s) {
    total += p.weight;
    EXPECT_NEAR(p.position[0], 1.0, 0.01);
    EXPECT_NEAR(p.position[1], 0.0, 0.01);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ColorSignatureTest, TwoColorImageFindsBothClusters) {
  Image img(32, 32, 3);
  FillRect(&img, 0, 0, 16, 32, {255, 0, 0});
  FillRect(&img, 16, 0, 16, 32, {0, 0, 255});
  const Signature s = MakeColorSignature(img, 4).value();
  bool has_red = false;
  bool has_blue = false;
  for (const SignaturePoint& p : s) {
    if (p.position[0] > 0.8 && p.position[2] < 0.2 && p.weight > 0.3) {
      has_red = true;
    }
    if (p.position[2] > 0.8 && p.position[0] < 0.2 && p.weight > 0.3) {
      has_blue = true;
    }
  }
  EXPECT_TRUE(has_red);
  EXPECT_TRUE(has_blue);
}

TEST(ColorSignatureTest, DeterministicForSameImage) {
  Image img(24, 24, 3);
  Rng rng(3);
  AddGaussianNoise(&img, 80.0, &rng);
  const Signature a = MakeColorSignature(img, 6).value();
  const Signature b = MakeColorSignature(img, 6).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
    EXPECT_EQ(a[i].position, b[i].position);
  }
}

TEST(ColorSignatureTest, SimilarImagesHaveSmallEmd) {
  Image a(32, 32, 3);
  a.Fill({200, 50, 50});
  FillCircle(&a, 16, 16, 8, {50, 50, 200});
  Image b = a;
  Rng rng(4);
  AddGaussianNoise(&b, 5.0, &rng);
  Image c(32, 32, 3);
  c.Fill({20, 220, 20});
  const Signature sa = MakeColorSignature(a, 4).value();
  const Signature sb = MakeColorSignature(b, 4).value();
  const Signature sc = MakeColorSignature(c, 4).value();
  EXPECT_LT(EmdSignatureDistance(sa, sb).value(),
            EmdSignatureDistance(sa, sc).value());
}

}  // namespace
}  // namespace vr
