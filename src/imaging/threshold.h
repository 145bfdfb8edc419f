/// \file threshold.h
/// \brief Global thresholding: Huang's minimum-fuzziness method.
///
/// The paper's region-growing preprocessing calls JAI's
/// `getMinFuzzinessThreshold`, which implements Huang & Wang (1995)
/// fuzzy thresholding.

#pragma once

#include "imaging/histogram.h"
#include "imaging/image.h"

namespace vr {

/// Huang & Wang minimum-fuzziness threshold from a histogram
/// (JAI's getMinFuzzinessThreshold).
int MinFuzzinessThreshold(const GrayHistogram& hist);

/// Binarizes \p img: pixels > \p threshold map to 255, others to 0.
Image Binarize(const Image& img, int threshold);

}  // namespace vr
