#include "similarity/metrics.h"

#include <algorithm>
#include <cmath>

namespace vr {

namespace {
size_t CommonSize(const std::vector<double>& a, const std::vector<double>& b) {
  return std::min(a.size(), b.size());
}
}  // namespace

double L1Distance(const double* a, size_t na, const double* b, size_t nb) {
  double acc = 0.0;
  for (size_t i = 0, n = std::min(na, nb); i < n; ++i) {
    acc += std::fabs(a[i] - b[i]);
  }
  return acc;
}

double L2Distance(const double* a, size_t na, const double* b, size_t nb) {
  double acc = 0.0;
  for (size_t i = 0, n = std::min(na, nb); i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double LInfDistance(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double mx = 0.0;
  for (size_t i = 0, n = CommonSize(a, b); i < n; ++i) {
    mx = std::max(mx, std::fabs(a[i] - b[i]));
  }
  return mx;
}

double HistogramIntersectionDistance(const double* a, size_t na,
                                     const double* b, size_t nb) {
  double inter = 0.0;
  double sa = 0.0;
  double sb = 0.0;
  for (size_t i = 0, n = std::min(na, nb); i < n; ++i) {
    inter += std::min(a[i], b[i]);
  }
  for (size_t i = 0; i < na; ++i) sa += a[i];
  for (size_t i = 0; i < nb; ++i) sb += b[i];
  const double denom = std::min(sa, sb);
  if (denom <= 0) return sa == sb ? 0.0 : 1.0;
  return 1.0 - inter / denom;
}

double HistogramIntersectionDistance(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  return HistogramIntersectionDistance(a.data(), a.size(), b.data(), b.size());
}

double EmdL1Distance(const std::vector<double>& a,
                     const std::vector<double>& b) {
  const size_t n = CommonSize(a, b);
  double sa = 0.0;
  double sb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sa += a[i];
    sb += b[i];
  }
  if (sa <= 0 || sb <= 0) return sa == sb ? 0.0 : 1.0;
  double cdf_diff = 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    cdf_diff += a[i] / sa - b[i] / sb;
    acc += std::fabs(cdf_diff);
  }
  return acc;
}

double CanberraDistance(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double acc = 0.0;
  for (size_t i = 0, n = CommonSize(a, b); i < n; ++i) {
    const double den = std::fabs(a[i]) + std::fabs(b[i]);
    if (den > 0) acc += std::fabs(a[i] - b[i]) / den;
  }
  return acc;
}

}  // namespace vr
