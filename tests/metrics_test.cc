#include "similarity/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "util/rng.h"

namespace vr {
namespace {

using Vec = std::vector<double>;
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

/// Vector adapters: MetricDistance under one spec each.
template <CodeMetricSpec kSpec>
double Metric(const Vec& a, const Vec& b) {
  return MetricDistance(kSpec, a.data(), a.size(), b.data(), b.size());
}
/// Plain L1: the tail Canberra scores after an empty Canberra range
/// (the same loop that scores Tamura's directionality histogram).
constexpr auto L1 =
    &Metric<CodeMetricSpec{.family = CodeMetricFamily::kCanberraL1,
                           .canberra_end = 0,
                           .l1_tail = true}>;
constexpr auto L2 =
    &Metric<CodeMetricSpec{.family = CodeMetricFamily::kL2Blocked}>;
constexpr auto Canberra =
    &Metric<CodeMetricSpec{.family = CodeMetricFamily::kCanberraL1}>;

TEST(MetricsTest, L1L2Basics) {
  const Vec a = {1, 2, 3};
  const Vec b = {2, 0, 3};
  EXPECT_DOUBLE_EQ(L1(a, b), 3.0);
  EXPECT_DOUBLE_EQ(L2(a, b), std::sqrt(5.0));
}

TEST(MetricsTest, CanberraBasics) {
  EXPECT_DOUBLE_EQ(Canberra({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(Canberra({1, 0}, {0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(Canberra({1, 2}, {3, 2}), 0.5);
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
        NamedMetric{"L1", L1}, NamedMetric{"L2", L2},
        NamedMetric{"Canberra", Canberra},
        NamedMetric{"NormalizedL1",
                    &Metric<CodeMetricSpec{
                        .family = CodeMetricFamily::kNormalizedL1}>},
        NamedMetric{"D1",
                    &Metric<CodeMetricSpec{.family = CodeMetricFamily::kD1}>},
        NamedMetric{"L2Blocked3",
                    &Metric<CodeMetricSpec{
                        .family = CodeMetricFamily::kL2Blocked, .block = 3}>}),
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
    testing::Values(NamedMetric{"L1", L1}, NamedMetric{"L2", L2},
                    NamedMetric{"Canberra", Canberra}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace vr
