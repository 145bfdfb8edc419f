/// \file metrics.h
/// \brief Vector dissimilarity measures.
///
/// All functions treat the common prefix of the two vectors and are
/// symmetric, non-negative and zero on identical inputs (a genuine
/// metric only where noted).

#pragma once

#include <cstddef>
#include <vector>

namespace vr {

/// Chebyshev (L-infinity) distance.
double LInfDistance(const std::vector<double>& a,
                    const std::vector<double>& b);

/// Histogram-intersection dissimilarity: 1 - sum min(a,b) / min(|a|,|b|).
/// Inputs are interpreted as (possibly unnormalized) histograms.
double HistogramIntersectionDistance(const std::vector<double>& a,
                                     const std::vector<double>& b);

/// 1-D earth mover's distance between L1-normalized histograms whose bins
/// are ordered: the L1 norm of the CDF difference.
double EmdL1Distance(const std::vector<double>& a,
                     const std::vector<double>& b);

/// Canberra distance: sum |a-b| / (|a|+|b|).
double CanberraDistance(const std::vector<double>& a,
                        const std::vector<double>& b);

/// \name Span kernels over raw value arrays (the FeatureMatrix column
/// layout).
/// @{
/// Manhattan (L1) distance; the edge histogram's metric.
double L1Distance(const double* a, size_t na, const double* b, size_t nb);
/// Euclidean (L2) distance; the color signature's fallback metric.
double L2Distance(const double* a, size_t na, const double* b, size_t nb);
/// Bit-identical to the std::vector overload above on the same values.
double HistogramIntersectionDistance(const double* a, size_t na,
                                     const double* b, size_t nb);
/// @}

}  // namespace vr
