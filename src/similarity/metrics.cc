#include "similarity/metrics.h"

#include <algorithm>
#include <cmath>

namespace vr {

namespace {

/// kNone: L2 over the common prefix; a length mismatch contributes the
/// longer vector's tail mass.
double L2WithTail(const double* a, size_t na, const double* b, size_t nb) {
  const size_t n = std::min(na, nb);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  for (size_t i = n; i < na; ++i) acc += a[i] * a[i];
  for (size_t i = n; i < nb; ++i) acc += b[i] * b[i];
  return std::sqrt(acc);
}

double L2Blocked(size_t block, const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t off = 0; off + block <= n; off += block) {
    double ssd = 0.0;
    for (size_t i = off; i < off + block; ++i) {
      const double d = a[i] - b[i];
      ssd += d * d;
    }
    acc += std::sqrt(ssd);
  }
  return acc;
}

double NormalizedL1(const double* a, size_t na, const double* b, size_t nb) {
  double sa = 0.0;
  double sb = 0.0;
  for (size_t i = 0; i < na; ++i) sa += a[i];
  for (size_t i = 0; i < nb; ++i) sb += b[i];
  if (sa == 0.0 || sb == 0.0) return sa == sb ? 0.0 : 2.0;
  double acc = 0.0;
  for (size_t i = 0, n = std::min(na, nb); i < n; ++i) {
    acc += std::fabs(a[i] / sa - b[i] / sb);
  }
  return acc;
}

double CanberraL1(const CodeMetricSpec& spec, const double* a, size_t na,
                  const double* b, size_t nb) {
  const size_t end = spec.canberra_end;
  if (spec.l1_tail && (na < end || nb < end)) {
    return L2WithTail(a, na, b, nb);
  }
  const size_t n = std::min(na, nb);
  double acc = 0.0;
  for (size_t i = spec.canberra_begin; i < std::min(n, end); ++i) {
    const double den = std::fabs(a[i]) + std::fabs(b[i]);
    if (den > 0) acc += std::fabs(a[i] - b[i]) / den;
  }
  if (!spec.l1_tail) return acc;
  double tail = 0.0;
  for (size_t i = end; i < n; ++i) tail += std::fabs(a[i] - b[i]);
  return acc + tail;
}

double D1(const double* a, const double* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += std::fabs(a[i] - b[i]) / (1.0 + a[i] + b[i]);
  }
  return acc;
}

}  // namespace

double MetricDistance(const CodeMetricSpec& spec, const double* a, size_t na,
                      const double* b, size_t nb) {
  const size_t n = std::min(na, nb);
  switch (spec.family) {
    case CodeMetricFamily::kNone:
      break;
    case CodeMetricFamily::kL2Blocked:
      if (spec.block == 0) break;
      return L2Blocked(spec.block, a, b, n);
    case CodeMetricFamily::kNormalizedL1:
      return NormalizedL1(a, na, b, nb);
    case CodeMetricFamily::kCanberraL1:
      return CanberraL1(spec, a, na, b, nb);
    case CodeMetricFamily::kD1:
      return D1(a, b, n);
  }
  return L2WithTail(a, na, b, nb);
}

}  // namespace vr
