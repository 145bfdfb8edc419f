/// \file metrics.h
/// \brief The feature distances: one spec per extractor, one function
/// that evaluates it.
///
/// A CodeMetricSpec is the single definition of a feature kind's
/// distance. MetricDistance evaluates it exactly over raw value arrays
/// (the FeatureMatrix column layout); the two-stage coarse kernels
/// (similarity/code_kernels.h) approximate the same spec over u8 codes,
/// so the exact and the coarse score cannot describe different metrics.

#pragma once

#include <cstddef>
#include <cstdint>

namespace vr {

/// The distance families.
enum class CodeMetricFamily : uint8_t {
  /// The default distance: L2 over the common prefix plus the squared
  /// mass of the longer vector's tail. No code-space kernel; a kind
  /// tagged kNone opts the whole query out of the coarse stage.
  kNone = 0,
  /// sum over fixed-size blocks of sqrt(block SSD) — integer SSD per
  /// block; min(na, nb) / block whole blocks, remainder ignored.
  /// block == 0 means one block spanning the whole vector: plain L2,
  /// evaluated exactly as the kNone default (tail mass included).
  kL2Blocked,
  /// L1 between L1-normalized vectors (sum |a_i/sa - b_i/sb|) over the
  /// common prefix, each sum over its whole vector; in [0, 2], and 0 or
  /// 2 when either sum is zero (0 only when both are). The query side
  /// is normalized exactly at prepare; the row's sum is reconstructed
  /// from the column's per-row code sums.
  kNormalizedL1,
  /// Canberra (sum |a-b| / (|a|+|b|), zero-denominator terms skipped)
  /// over [canberra_begin, canberra_end), optionally followed by a
  /// plain L1 tail over [canberra_end, len).
  kCanberraL1,
  /// Huang's d1: sum |a-b| / (1 + a + b), non-negative inputs.
  kD1,
};

/// Per-extractor tag describing its distance; FeatureExtractor's
/// code_metric() returns it and DistanceSpan evaluates it.
struct CodeMetricSpec {
  CodeMetricFamily family = CodeMetricFamily::kNone;
  /// kL2Blocked: elements per block (3 for RGB triples); 0 = whole
  /// vector as one block.
  uint32_t block = 0;
  /// kCanberraL1: half-open element range of the Canberra part
  /// (clamped to the common length). Elements before the range are
  /// ignored (GLCM's pixel counter).
  uint32_t canberra_begin = 0;
  uint32_t canberra_end = 0xffffffffu;
  /// kCanberraL1: score [canberra_end, len) as a plain L1 tail (else
  /// those elements are ignored). With a tail, a vector shorter than
  /// canberra_end has no tail to score and takes the kNone default.
  bool l1_tail = false;
};

/// The exact distance \p spec defines between two value arrays:
/// non-negative, and 0 on identical inputs. Lengths may differ; each
/// family states above how it treats the unmatched elements.
double MetricDistance(const CodeMetricSpec& spec, const double* a, size_t na,
                      const double* b, size_t nb);

}  // namespace vr
