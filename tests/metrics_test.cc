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

TEST(MetricsTest, L1L2LInfBasics) {
  const Vec a = {1, 2, 3};
  const Vec b = {2, 0, 3};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(L2Distance(a, b), std::sqrt(5.0));
  EXPECT_DOUBLE_EQ(LInfDistance(a, b), 2.0);
}

TEST(MetricsTest, CosineBasics) {
  EXPECT_NEAR(CosineDistance({1, 0}, {2, 0}), 0.0, 1e-12);
  EXPECT_NEAR(CosineDistance({1, 0}, {0, 1}), 1.0, 1e-12);
  EXPECT_NEAR(CosineDistance({1, 0}, {-1, 0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineDistance({0, 0}, {0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(CosineDistance({0, 0}, {1, 0}), 1.0);
}

TEST(MetricsTest, ChiSquareIgnoresEmptyBins) {
  EXPECT_DOUBLE_EQ(ChiSquareDistance({0, 1}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(ChiSquareDistance({2, 0}, {0, 2}), 4.0);
}

TEST(MetricsTest, HistogramIntersectionBounds) {
  EXPECT_DOUBLE_EQ(HistogramIntersectionDistance({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(HistogramIntersectionDistance({1, 0}, {0, 1}), 1.0);
  const double d = HistogramIntersectionDistance({3, 1}, {1, 3});
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(MetricsTest, JensenShannonProperties) {
  EXPECT_NEAR(JensenShannonDivergence({1, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(JensenShannonDivergence({1, 0}, {0, 1}), std::log(2.0), 1e-12);
  // Symmetry.
  const Vec p = {0.2, 0.5, 0.3};
  const Vec q = {0.6, 0.1, 0.3};
  EXPECT_DOUBLE_EQ(JensenShannonDivergence(p, q),
                   JensenShannonDivergence(q, p));
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

TEST(MetricsTest, BatchKernelsBitIdenticalToScalar) {
  // Build a strided column: 12 rows, stride 16, ragged lengths, a
  // gather index that skips and reorders rows — the layout the
  // candidate-pruned ranking path hands to BatchDistance.
  constexpr size_t kRows = 12;
  constexpr size_t kStride = 16;
  Rng rng(1234);
  std::vector<double> rows(kRows * kStride, 0.0);
  std::vector<uint32_t> lengths(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    lengths[r] = static_cast<uint32_t>(r == 3 ? 0 : 4 + (r * 5) % (kStride - 3));
    for (uint32_t j = 0; j < lengths[r]; ++j) {
      rows[r * kStride + j] = rng.UniformDouble(0, 10);
    }
  }
  std::vector<double> query(11);
  for (auto& v : query) v = rng.UniformDouble(0, 10);
  const std::vector<uint32_t> indices = {7, 0, 3, 11, 5, 5, 2};

  struct Kernel {
    const char* name;
    void (*batch)(const double*, size_t, const double*, size_t,
                  const uint32_t*, const uint32_t*, size_t, double*);
    double (*scalar)(const double*, size_t, const double*, size_t);
  };
  const Kernel kernels[] = {
      {"L1", &BatchL1Distance, &L1Distance},
      {"L2", &BatchL2Distance, &L2Distance},
      {"Intersection", &BatchHistogramIntersectionDistance,
       &HistogramIntersectionDistance},
  };
  for (const Kernel& k : kernels) {
    std::vector<double> out(indices.size(), -1.0);
    k.batch(query.data(), query.size(), rows.data(), kStride, lengths.data(),
            indices.data(), indices.size(), out.data());
    for (size_t i = 0; i < indices.size(); ++i) {
      const uint32_t r = indices[i];
      const double expected = k.scalar(query.data(), query.size(),
                                       rows.data() + r * kStride, lengths[r]);
      // Bitwise: the batch loops must share the scalar accumulation
      // order, or sharded ranking stops being byte-identical to serial.
      EXPECT_EQ(out[i], expected) << k.name << " row " << r;
    }
  }
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
        NamedMetric{"L1", &L1Distance}, NamedMetric{"L2", &L2Distance},
        NamedMetric{"LInf", &LInfDistance},
        NamedMetric{"Cosine", &CosineDistance},
        NamedMetric{"ChiSquare", &ChiSquareDistance},
        NamedMetric{"Intersection", &HistogramIntersectionDistance},
        NamedMetric{"JensenShannon", &JensenShannonDivergence},
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
    testing::Values(NamedMetric{"L1", &L1Distance},
                    NamedMetric{"L2", &L2Distance},
                    NamedMetric{"LInf", &LInfDistance},
                    NamedMetric{"Canberra", &CanberraDistance}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace vr
