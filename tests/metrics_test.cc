#include "similarity/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "util/rng.h"

namespace vr {
namespace {

using Vec = std::vector<double>;
/// Disambiguates the vector overload now that span kernels exist.
using VecMetric = double (*)(const Vec&, const Vec&);

/// Parameter of the metric-property suites. gtest prints the parameter
/// next to each test's name when the tests are listed; printing only the
/// metric name keeps those names free of load addresses, so they are the
/// same from one build (and one run) to the next.
struct NamedMetric {
  const char* name;
  VecMetric metric;
};

void PrintTo(const NamedMetric& m, std::ostream* os) { *os << m.name; }

/// Vector adapters for the span-only L1/L2 kernels.
double L1(const Vec& a, const Vec& b) {
  return L1Distance(a.data(), a.size(), b.data(), b.size());
}
double L2(const Vec& a, const Vec& b) {
  return L2Distance(a.data(), a.size(), b.data(), b.size());
}

TEST(MetricsTest, L1L2LInfBasics) {
  const Vec a = {1, 2, 3};
  const Vec b = {2, 0, 3};
  EXPECT_DOUBLE_EQ(L1(a, b), 3.0);
  EXPECT_DOUBLE_EQ(L2(a, b), std::sqrt(5.0));
  EXPECT_DOUBLE_EQ(LInfDistance(a, b), 2.0);
}

TEST(MetricsTest, HistogramIntersectionBounds) {
  EXPECT_DOUBLE_EQ(HistogramIntersectionDistance({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(HistogramIntersectionDistance({1, 0}, {0, 1}), 1.0);
  const double d = HistogramIntersectionDistance({3, 1}, {1, 3});
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(MetricsTest, EmdShiftSensitivity) {
  // Mass one bin apart costs less than mass far apart.
  const Vec base = {1, 0, 0, 0};
  const Vec near = {0, 1, 0, 0};
  const Vec far = {0, 0, 0, 1};
  EXPECT_LT(EmdL1Distance(base, near), EmdL1Distance(base, far));
  EXPECT_DOUBLE_EQ(EmdL1Distance(base, base), 0.0);
}

TEST(MetricsTest, EmdNormalizesMass) {
  // Scaled histograms are the same distribution.
  EXPECT_NEAR(EmdL1Distance({2, 2}, {5, 5}), 0.0, 1e-12);
}

TEST(MetricsTest, CanberraBasics) {
  EXPECT_DOUBLE_EQ(CanberraDistance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(CanberraDistance({1, 0}, {0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CanberraDistance({1, 2}, {3, 2}), 0.5);
}

class MetricAxiomsTest : public testing::TestWithParam<NamedMetric> {};

TEST_P(MetricAxiomsTest, NonNegativeSymmetricZeroOnSelf) {
  auto [name, metric] = GetParam();
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    Vec a(16);
    Vec b(16);
    for (auto& v : a) v = rng.UniformDouble(0, 10);
    for (auto& v : b) v = rng.UniformDouble(0, 10);
    const double dab = metric(a, b);
    const double dba = metric(b, a);
    EXPECT_GE(dab, 0.0) << name;
    EXPECT_NEAR(dab, dba, 1e-9) << name;
    EXPECT_NEAR(metric(a, a), 0.0, 1e-9) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, MetricAxiomsTest,
    testing::Values(
        NamedMetric{"L1", &L1}, NamedMetric{"L2", &L2},
        NamedMetric{"LInf", &LInfDistance},
        NamedMetric{"Intersection", &HistogramIntersectionDistance},
        NamedMetric{"EMD", &EmdL1Distance},
        NamedMetric{"Canberra", &CanberraDistance}),
    [](const auto& info) { return info.param.name; });

class TriangleInequalityTest : public testing::TestWithParam<NamedMetric> {};

TEST_P(TriangleInequalityTest, Holds) {
  auto [name, metric] = GetParam();
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    Vec a(8);
    Vec b(8);
    Vec c(8);
    for (auto& v : a) v = rng.UniformDouble(0, 5);
    for (auto& v : b) v = rng.UniformDouble(0, 5);
    for (auto& v : c) v = rng.UniformDouble(0, 5);
    EXPECT_LE(metric(a, c), metric(a, b) + metric(b, c) + 1e-9) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TrueMetrics, TriangleInequalityTest,
    testing::Values(NamedMetric{"L1", &L1}, NamedMetric{"L2", &L2},
                    NamedMetric{"LInf", &LInfDistance},
                    NamedMetric{"Canberra", &CanberraDistance}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace vr
