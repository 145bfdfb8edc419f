#include "similarity/emd.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace vr {

namespace {

/// L1-normalizes into \p out; returns false when total mass is zero.
bool Normalize(const std::vector<double>& in, std::vector<double>* out) {
  double total = 0.0;
  for (double v : in) total += std::max(0.0, v);
  if (total <= 0.0) return false;
  out->resize(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    (*out)[i] = std::max(0.0, in[i]) / total;
  }
  return true;
}

}  // namespace

double EmdLinear(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> pa;
  std::vector<double> pb;
  if (!Normalize(a, &pa) || !Normalize(b, &pb)) return 0.0;
  const size_t n = std::min(pa.size(), pb.size());
  double carry = 0.0;
  double cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    carry += pa[i] - pb[i];
    cost += std::fabs(carry);
  }
  return cost;
}

double EmdCircular(const std::vector<double>& a,
                   const std::vector<double>& b) {
  std::vector<double> pa;
  std::vector<double> pb;
  if (!Normalize(a, &pa) || !Normalize(b, &pb)) return 0.0;
  const size_t n = std::min(pa.size(), pb.size());
  if (n == 0) return 0.0;
  // Cumulative difference; circular EMD = sum |F_i - median(F)|.
  std::vector<double> cum(n);
  double carry = 0.0;
  for (size_t i = 0; i < n; ++i) {
    carry += pa[i] - pb[i];
    cum[i] = carry;
  }
  std::vector<double> sorted = cum;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(n / 2),
                   sorted.end());
  const double median = sorted[n / 2];
  double cost = 0.0;
  for (double f : cum) cost += std::fabs(f - median);
  return cost;
}

double EmdCentroidLowerBound(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> pa;
  std::vector<double> pb;
  if (!Normalize(a, &pa) || !Normalize(b, &pb)) return 0.0;
  const size_t n = std::min(pa.size(), pb.size());
  double ca = 0.0;
  double cb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ca += static_cast<double>(i) * pa[i];
    cb += static_cast<double>(i) * pb[i];
  }
  return std::fabs(ca - cb);
}

}  // namespace vr
