/// \file emd.h
/// \brief Earth mover's distance with a centroid lower bound.
///
/// The paper cites Shishibori, Koizumi & Kita, "Fast retrieval algorithm
/// for earth mover's distance using EMD lower bounds and a skipping
/// algorithm" (its reference [14]) as the fast path for histogram
/// similarity. This module holds the 1-D pieces of that idea: exact EMD
/// (linear and circular bin topologies) and a cheap centroid lower
/// bound.

#pragma once

#include <vector>

namespace vr {

/// Exact EMD between 1-D histograms whose bins lie on a line with
/// ground distance |i - j| (in bins). Histograms are L1-normalized
/// internally; zero-mass inputs yield 0.
double EmdLinear(const std::vector<double>& a, const std::vector<double>& b);

/// Exact EMD on a circular bin topology (e.g. hue histograms): ground
/// distance is the arc length min(|i-j|, n-|i-j|). Uses the closed form
/// of Rabin et al.: shift the cumulative difference by its median.
double EmdCircular(const std::vector<double>& a, const std::vector<double>& b);

/// Rubner's centroid lower bound for EmdLinear:
/// |centroid(a) - centroid(b)| <= EmdLinear(a, b).
double EmdCentroidLowerBound(const std::vector<double>& a,
                             const std::vector<double>& b);

}  // namespace vr
