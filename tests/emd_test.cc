#include "similarity/emd.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace vr {
namespace {

std::vector<double> RandomHistogram(Rng* rng, size_t n) {
  std::vector<double> h(n);
  for (auto& v : h) v = rng->UniformDouble(0, 10);
  return h;
}

TEST(EmdTest, LinearBasics) {
  EXPECT_DOUBLE_EQ(EmdLinear({1, 0, 0}, {1, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(EmdLinear({1, 0, 0}, {0, 1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(EmdLinear({1, 0, 0}, {0, 0, 1}), 2.0);
  // Split mass: half moves 1 bin, half moves 2 bins.
  EXPECT_DOUBLE_EQ(EmdLinear({1, 0, 0}, {0, 0.5, 0.5}), 1.5);
}

TEST(EmdTest, LinearMassNormalized) {
  EXPECT_DOUBLE_EQ(EmdLinear({2, 0}, {0, 6}), 1.0);
  EXPECT_DOUBLE_EQ(EmdLinear({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(EmdLinear({0, 0}, {0, 0}), 0.0);
}

TEST(EmdTest, CircularWrapsAround) {
  // On a circle of 8 bins, bin 0 -> bin 7 costs 1 (the short way), not 7.
  std::vector<double> a(8, 0.0);
  std::vector<double> b(8, 0.0);
  a[0] = 1.0;
  b[7] = 1.0;
  EXPECT_DOUBLE_EQ(EmdLinear(a, b), 7.0);
  EXPECT_DOUBLE_EQ(EmdCircular(a, b), 1.0);
}

TEST(EmdTest, CircularMatchesLinearForCentralMass) {
  // When no mass benefits from wrapping, the two agree.
  const std::vector<double> a = {0, 0, 1, 0, 0, 0, 0, 0};
  const std::vector<double> b = {0, 0, 0, 1, 0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(EmdCircular(a, b), EmdLinear(a, b));
}

TEST(EmdTest, CircularNeverExceedsLinear) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = RandomHistogram(&rng, 16);
    const auto b = RandomHistogram(&rng, 16);
    EXPECT_LE(EmdCircular(a, b), EmdLinear(a, b) + 1e-9);
  }
}

TEST(EmdTest, LowerBoundIsALowerBound) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomHistogram(&rng, 32);
    const auto b = RandomHistogram(&rng, 32);
    EXPECT_LE(EmdCentroidLowerBound(a, b), EmdLinear(a, b) + 1e-9);
  }
}

TEST(EmdTest, LowerBoundTightForSingleSpikes) {
  // For unit spikes the centroid bound equals the exact distance.
  std::vector<double> a(10, 0.0);
  std::vector<double> b(10, 0.0);
  a[2] = 1.0;
  b[7] = 1.0;
  EXPECT_DOUBLE_EQ(EmdCentroidLowerBound(a, b), 5.0);
  EXPECT_DOUBLE_EQ(EmdLinear(a, b), 5.0);
}

TEST(EmdTest, MetricAxiomsLinear) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomHistogram(&rng, 12);
    const auto b = RandomHistogram(&rng, 12);
    const auto c = RandomHistogram(&rng, 12);
    EXPECT_NEAR(EmdLinear(a, a), 0.0, 1e-9);
    EXPECT_NEAR(EmdLinear(a, b), EmdLinear(b, a), 1e-9);
    EXPECT_LE(EmdLinear(a, c), EmdLinear(a, b) + EmdLinear(b, c) + 1e-9);
  }
}

}  // namespace
}  // namespace vr
