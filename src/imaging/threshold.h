/// \file threshold.h
/// \brief Global thresholding: Huang's minimum-fuzziness method.
///
/// The paper's region-growing preprocessing calls JAI's
/// `getMinFuzzinessThreshold`, which implements Huang & Wang (1995)
/// fuzzy thresholding.

#pragma once

#include "imaging/histogram.h"

namespace vr {

/// Huang & Wang minimum-fuzziness threshold from a histogram
/// (JAI's getMinFuzzinessThreshold).
int MinFuzzinessThreshold(const GrayHistogram& hist);

}  // namespace vr
