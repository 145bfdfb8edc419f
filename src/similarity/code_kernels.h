/// \file code_kernels.h
/// \brief Integer code-space coarse kernels for the two-stage query.
///
/// The FeatureMatrix keeps an 8-bit affine-quantized shadow of every
/// feature column (code = round(255 * (v - qmin) / (qmax - qmin))).
/// The coarse stage of a two-stage query scores candidates directly on
/// those codes: the query vector is quantized once per kind, then each
/// candidate row is scored by a per-metric-family kernel that stays in
/// u8/u32 integer space (blocked L2) or runs one flat double loop
/// over the raw codes (ratio families) — no per-row dequantization
/// buffer and no virtual dispatch inside the row loop.
///
/// Every kernel comes with a provable error bound. Writing step =
/// (qmax - qmin) / 255, a stored value v in [qmin, qmax] reconstructs
/// from its code B = qmin + step * code with |v - B| <= step / 2 (the
/// matrix re-quantizes eagerly whenever an append widens the range, so
/// stored values never clamp). The query-side reconstruction error
/// e_i = |q_i - (qmin + step * code_i)| is computed exactly at prepare
/// time (a query may fall outside the corpus range; the bound simply
/// grows). PrepareCodeKernelQuery folds the row-independent part of the
/// per-family bound into CodeKernelQuery::uniform_slack; kernels add
/// the row-dependent part, so for every scored (non-forced) row
///
///     |coarse(row) - exact(row)| <= uniform_slack + row_slack,
///
/// where exact(row) is MetricDistance (similarity/metrics.h) of the
/// same CodeMetricSpec — the one definition of the kind's distance.
/// tests/code_kernels_test.cc sweeps random ranges/vectors asserting
/// the bound dominates the observed error; DESIGN.md sketches the
/// per-family proofs. The caller (RetrievalEngine::CoarseSelect) turns
/// these intervals into a rerank margin that provably preserves the
/// exact top-k.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "similarity/metrics.h"

namespace vr {

/// A query vector prepared for code-space scoring against one column.
struct CodeKernelQuery {
  CodeMetricSpec spec;
  double qmin = 0.0;
  double step = 0.0;   ///< (qmax - qmin) / 255
  double delta = 0.0;  ///< certified per-element stored-row error bound
  /// Query length; candidate rows of any other length are forced (kept
  /// without a bound claim) because truncation/tail-mass semantics of
  /// the exact metrics would invalidate the per-element analysis.
  uint32_t length = 0;
  /// Quantized query (kL2Blocked, kD1, and kCanberraL1 tails).
  std::vector<uint8_t> codes;
  /// Exact query values: q/sum(q) for kNormalizedL1, a plain copy for
  /// kCanberraL1 (those families keep the query side exact, so only
  /// the row side contributes quantization error).
  std::vector<double> values;
  /// Row-independent part of the error bound (already FP-inflated).
  double uniform_slack = 0.0;
};

/// Maps one value into a column's u8 code space; the single definition
/// shared by the matrix shadow columns, the persisted codes, and the
/// query-side coding (FeatureMatrix::QuantizeValue delegates here).
/// 0 for a degenerate or NaN range, else round(255 * (v - qmin) /
/// (qmax - qmin)) clamped to [0, 255].
uint8_t QuantizeCode(double v, double qmin, double qmax);

/// Builds the prepared query for one kind. Returns false — the caller
/// must fall back to the exact scan — when the family is kNone, the
/// range is degenerate or non-finite, or a family precondition fails
/// (kNormalizedL1: sum(q) > 0 and qmin >= 0; kD1: q >= 0 and
/// qmin >= 0; kCanberraL1 with an L1 tail: length >= canberra_end).
bool PrepareCodeKernelQuery(const CodeMetricSpec& spec, const double* q,
                            size_t qn, double qmin, double qmax,
                            CodeKernelQuery* out);

/// Scores one candidate row. On success returns true and adds
/// weight * coarse to *score and weight * (uniform + row slack) to
/// *slack. Returns false when the row is forced — absent feature
/// semantics aside (the caller gates on the presence bitmap), that is
/// a length mismatch or an uncertifiable row (kNormalizedL1 row sum
/// not provably positive) — in which case nothing is accumulated and
/// the caller must keep the row unconditionally.
bool CodeKernelScoreRow(const CodeKernelQuery& q, const uint8_t* row_codes,
                        uint32_t row_length, uint32_t row_code_sum,
                        double weight, double* score, double* slack);

/// Column-batch form: scores count candidate rows against one prepared
/// query, accumulating into parallel score/slack arrays. The family
/// switch happens once out here; each family then runs a flat loop
/// over the strided u8 codes. Rows that cannot be scored (absent
/// feature, length mismatch, uncertifiable) set forced[i] = 1 and
/// accumulate nothing.
struct CodeBatchSpan {
  const uint8_t* codes = nullptr;      ///< column code base
  size_t stride = 0;                   ///< codes per row
  const uint32_t* lengths = nullptr;   ///< per-row value counts
  const uint32_t* code_sums = nullptr; ///< per-row sum of codes
  const uint8_t* present = nullptr;    ///< per-row feature presence
  const uint32_t* rows = nullptr;      ///< candidate row ids
  size_t count = 0;                    ///< candidates to score
  double weight = 1.0;                 ///< fusion weight
  double* score = nullptr;             ///< += weight * coarse, length count
  double* slack = nullptr;             ///< += weight * bound, length count
  uint8_t* forced = nullptr;           ///< |= 1 on unscorable rows
};
void CodeKernelBatch(const CodeKernelQuery& q, const CodeBatchSpan& span);

}  // namespace vr
