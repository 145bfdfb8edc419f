/// \file emd_signature.h
/// \brief Exact earth mover's distance between weighted signatures.
///
/// The full Rubner EMD: each image is summarized by a small signature
/// (weighted cluster centers, here in RGB space via k-means) and the
/// distance is the optimal transportation cost between the two weighted
/// point sets under Euclidean ground distance. Exact EMD costs
/// O(n^3)-ish (min-cost flow); the centroid lower bound of the paper's
/// reference [14] is far cheaper.

#pragma once

#include <array>
#include <vector>

#include "imaging/image.h"
#include "util/status.h"

namespace vr {

/// One weighted cluster of a signature.
struct SignaturePoint {
  double weight = 0.0;                      ///< fraction of image mass
  std::array<double, 3> position{};         ///< cluster center (RGB / 255)
};

/// A signature: a handful of weighted cluster centers.
using Signature = std::vector<SignaturePoint>;

/// Exact EMD between two signatures with equal total weight (both are
/// normalized internally; empty or zero-mass signatures are
/// InvalidArgument). Euclidean ground distance between positions.
Result<double> EmdSignatureDistance(const Signature& a, const Signature& b);

/// Rubner's centroid lower bound: the distance between the two
/// signatures' centers of mass never exceeds the exact EMD (valid for a
/// norm ground distance and equal total weights).
Result<double> EmdSignatureLowerBound(const Signature& a, const Signature& b);

/// Builds a color signature by k-means clustering of the image's RGB
/// pixels (deterministic: k-means++ style seeding from a fixed RNG over
/// the pixel data). \p clusters in [1, 64].
Result<Signature> MakeColorSignature(const Image& img, int clusters = 8);

}  // namespace vr
