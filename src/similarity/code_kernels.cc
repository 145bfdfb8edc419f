#include "similarity/code_kernels.h"

#include <algorithm>
#include <cmath>

namespace vr {

namespace {

/// Relative / absolute inflation applied to every certified bound so
/// floating-point evaluation error (the proofs are in real arithmetic)
/// can never flip a comparison. The kernels accumulate at most a few
/// hundred terms, so 1e-9 relative dwarfs the ~1e-13 worst-case
/// summation error by four orders of magnitude.
constexpr double kRelSlack = 1e-9;
constexpr double kAbsSlack = 1e-12;

bool AllFinite(const double* q, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(q[i])) return false;
  }
  return true;
}

inline uint32_t AbsDiff(uint8_t a, uint8_t b) {
  const int d = static_cast<int>(a) - static_cast<int>(b);
  return static_cast<uint32_t>(d < 0 ? -d : d);
}

/// Per-block integer SSD -> sqrt; remainder elements are ignored,
/// matching the exact metrics (triples for NaiveSignature, the whole
/// prefix for plain L2).
inline double ScoreL2Blocked(const CodeKernelQuery& q, const uint8_t* b) {
  const size_t block = q.spec.block != 0 ? q.spec.block : q.length;
  if (block == 0) return 0.0;
  const size_t nblocks = q.length / block;
  const uint8_t* a = q.codes.data();
  double acc = 0.0;
  for (size_t blk = 0; blk < nblocks; ++blk) {
    const size_t off = blk * block;
    uint32_t ssd = 0;
    for (size_t i = 0; i < block; ++i) {
      const int d = static_cast<int>(a[off + i]) - static_cast<int>(b[off + i]);
      ssd += static_cast<uint32_t>(d * d);
    }
    // step * sqrt(int SSD) == sqrt(sum of dequantized squared diffs):
    // the qmin offset cancels in every difference.
    acc += std::sqrt(static_cast<double>(ssd));
  }
  return q.step * acc;
}

/// L1 against the exactly-normalized query, with the row normalized by
/// its reconstructed sum. Returns false when the row's true sum cannot
/// be certified positive (the exact metric's sb == 0 branch could
/// fire), which forces the row.
inline bool ScoreNormalizedL1(const CodeKernelQuery& q, const uint8_t* b,
                              uint32_t code_sum, double* coarse,
                              double* row_slack) {
  const size_t n = q.length;
  const double len_delta = static_cast<double>(n) * q.delta;
  const double sum_b =
      static_cast<double>(n) * q.qmin + q.step * static_cast<double>(code_sum);
  if (!(sum_b > len_delta * (1.0 + kRelSlack) + kAbsSlack)) return false;
  const double inv = 1.0 / sum_b;
  const double c0 = q.qmin * inv;
  const double c1 = q.step * inv;
  const double* a = q.values.data();
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += std::fabs(a[i] - (c0 + c1 * static_cast<double>(b[i])));
  }
  *coarse = acc;
  // ||b/sb - B/S_B||_1 <= 2 ||b - B||_1 / max(sb, S_B) <= 2 n delta / S_B
  // for non-negative vectors (qmin >= 0 is checked at prepare).
  *row_slack = 2.0 * len_delta * inv;
  return true;
}

/// Canberra over the prepared [begin, end) range with the query side
/// exact, plus an optional integer-SAD L1 tail. Per element, with
/// D = |a| + |B|: when D > delta the exact denominator is positive and
/// |coarse_i - exact_i| <= 2 delta / D (and each term is in [0, 1]);
/// otherwise the gate may disagree and the slack is the trivial 1.
inline void ScoreCanberraL1(const CodeKernelQuery& q, const uint8_t* b,
                            double* coarse, double* row_slack) {
  const size_t cb = q.spec.canberra_begin;
  const size_t ce = q.spec.canberra_end;
  const double* a = q.values.data();
  double acc = 0.0;
  double slack = 0.0;
  for (size_t i = cb; i < ce; ++i) {
    const double bb = q.qmin + q.step * static_cast<double>(b[i]);
    const double den = std::fabs(a[i]) + std::fabs(bb);
    if (den > 0.0) acc += std::fabs(a[i] - bb) / den;
    slack += den > q.delta ? std::min(1.0, 2.0 * q.delta / den) : 1.0;
  }
  if (q.spec.l1_tail) {
    const uint8_t* qa = q.codes.data();
    uint32_t sad = 0;
    for (size_t i = ce; i < q.length; ++i) sad += AbsDiff(qa[i], b[i]);
    acc += q.step * static_cast<double>(sad);
  }
  *coarse = acc;
  *row_slack = slack;
}

/// Huang's d1 on dequantized codes. Over the non-negative quadrant
/// each term is 2-Lipschitz in both arguments (|df/da| <= 2 / (1+a+b)
/// <= 2), so the whole bound is row-independent and lives in
/// uniform_slack.
inline double ScoreD1(const CodeKernelQuery& q, const uint8_t* b) {
  const uint8_t* a = q.codes.data();
  const double d0 = 1.0 + 2.0 * q.qmin;
  double acc = 0.0;
  for (size_t i = 0; i < q.length; ++i) {
    const int ai = a[i];
    const int bi = b[i];
    const int d = ai < bi ? bi - ai : ai - bi;
    acc += q.step * static_cast<double>(d) /
           (d0 + q.step * static_cast<double>(ai + bi));
  }
  return acc;
}

/// Shared row iteration: presence and length gates, then the
/// family-specific body. Instantiated per family at the dispatch
/// switch, so the body inlines into a flat loop.
template <typename RowFn>
inline void ForEachRow(const CodeBatchSpan& s, uint32_t qlen, RowFn&& fn) {
  for (size_t i = 0; i < s.count; ++i) {
    const uint32_t r = s.rows[i];
    if (!s.present[r] || s.lengths[r] != qlen) {
      s.forced[i] = 1;
      continue;
    }
    fn(i, r);
  }
}

}  // namespace

uint8_t QuantizeCode(double v, double qmin, double qmax) {
  const double span = qmax - qmin;
  if (!(span > 0.0)) return 0;  // degenerate (or NaN) range
  const double scaled = std::lround((v - qmin) * 255.0 / span);
  return static_cast<uint8_t>(std::clamp(scaled, 0.0, 255.0));
}

bool PrepareCodeKernelQuery(const CodeMetricSpec& spec, const double* q,
                            size_t qn, double qmin, double qmax,
                            CodeKernelQuery* out) {
  if (spec.family == CodeMetricFamily::kNone) return false;
  const double span = qmax - qmin;
  if (!std::isfinite(qmin) || !std::isfinite(qmax) || !(span > 0.0)) {
    return false;
  }
  if (!AllFinite(q, qn)) return false;

  out->spec = spec;
  out->qmin = qmin;
  out->step = span / 255.0;
  // Stored values lie inside [qmin, qmax] (the matrix re-quantizes
  // eagerly on range widening), so their reconstruction error is
  // step / 2 plus rounding noise in the code/decode arithmetic.
  out->delta = out->step * 0.5 * (1.0 + kRelSlack) +
               (std::fabs(qmin) + std::fabs(qmax)) * 1e-12;
  out->length = static_cast<uint32_t>(qn);
  out->codes.clear();
  out->values.clear();

  // Query-side reconstruction error, computed exactly per element (the
  // query may fall outside the corpus range; the bound just grows and
  // the margin keeps more rows).
  const auto quantize_with_error = [&](std::vector<double>* err) {
    out->codes.resize(qn);
    err->resize(qn);
    for (size_t i = 0; i < qn; ++i) {
      out->codes[i] = QuantizeCode(q[i], qmin, qmax);
      (*err)[i] = std::fabs(
          q[i] - (qmin + out->step * static_cast<double>(out->codes[i])));
    }
  };

  double uniform = 0.0;
  std::vector<double> err;
  switch (spec.family) {
    case CodeMetricFamily::kNone:
      return false;
    case CodeMetricFamily::kL2Blocked: {
      quantize_with_error(&err);
      const size_t block = spec.block != 0 ? spec.block : qn;
      const size_t nblocks = block != 0 ? qn / block : 0;
      // sqrt is 1-Lipschitz under the L2 norm, so per block the error
      // is at most ||e_block||_2 + delta * sqrt(block).
      for (size_t blk = 0; blk < nblocks; ++blk) {
        double ssq = 0.0;
        for (size_t i = 0; i < block; ++i) {
          ssq += err[blk * block + i] * err[blk * block + i];
        }
        uniform += std::sqrt(ssq) +
                   out->delta * std::sqrt(static_cast<double>(block));
      }
      break;
    }
    case CodeMetricFamily::kNormalizedL1: {
      // The normalization lemma needs non-negative vectors on both
      // sides; the query is normalized exactly, so only the row side
      // contributes error (computed per row from its code sum).
      if (qmin < 0.0) return false;
      double sa = 0.0;
      for (size_t i = 0; i < qn; ++i) {
        if (q[i] < 0.0) return false;
        sa += q[i];
      }
      if (!(sa > 0.0) || !std::isfinite(sa)) return false;
      out->values.resize(qn);
      for (size_t i = 0; i < qn; ++i) out->values[i] = q[i] / sa;
      break;
    }
    case CodeMetricFamily::kCanberraL1: {
      CodeMetricSpec clamped = spec;
      if (spec.l1_tail) {
        // A shorter vector would flip the exact metric to a different
        // family entirely (Tamura's default-L2 guard).
        if (qn < spec.canberra_end) return false;
      }
      clamped.canberra_begin = static_cast<uint32_t>(
          std::min<size_t>(spec.canberra_begin, qn));
      clamped.canberra_end =
          static_cast<uint32_t>(std::min<size_t>(spec.canberra_end, qn));
      out->spec = clamped;
      out->values.assign(q, q + qn);
      if (clamped.l1_tail) {
        quantize_with_error(&err);
        for (size_t i = clamped.canberra_end; i < qn; ++i) {
          uniform += err[i] + out->delta;
        }
      }
      break;
    }
    case CodeMetricFamily::kD1: {
      // The 2-Lipschitz bound needs the non-negative quadrant.
      if (qmin < 0.0) return false;
      for (size_t i = 0; i < qn; ++i) {
        if (q[i] < 0.0) return false;
      }
      quantize_with_error(&err);
      for (size_t i = 0; i < qn; ++i) {
        uniform += 2.0 * (err[i] + out->delta);
      }
      break;
    }
  }
  if (!std::isfinite(uniform)) return false;
  out->uniform_slack = uniform * (1.0 + kRelSlack) + kAbsSlack;
  return true;
}

bool CodeKernelScoreRow(const CodeKernelQuery& q, const uint8_t* row_codes,
                        uint32_t row_length, uint32_t row_code_sum,
                        double weight, double* score, double* slack) {
  if (row_length != q.length) return false;
  double coarse = 0.0;
  double row_slack = 0.0;
  switch (q.spec.family) {
    case CodeMetricFamily::kNone:
      return false;
    case CodeMetricFamily::kL2Blocked:
      coarse = ScoreL2Blocked(q, row_codes);
      break;
    case CodeMetricFamily::kNormalizedL1:
      if (!ScoreNormalizedL1(q, row_codes, row_code_sum, &coarse,
                             &row_slack)) {
        return false;
      }
      break;
    case CodeMetricFamily::kCanberraL1:
      ScoreCanberraL1(q, row_codes, &coarse, &row_slack);
      break;
    case CodeMetricFamily::kD1:
      coarse = ScoreD1(q, row_codes);
      break;
  }
  *score += weight * coarse;
  *slack += weight * (q.uniform_slack + row_slack);
  return true;
}

void CodeKernelBatch(const CodeKernelQuery& q, const CodeBatchSpan& s) {
  const double w = s.weight;
  const double wu = w * q.uniform_slack;
  switch (q.spec.family) {
    case CodeMetricFamily::kNone:
      for (size_t i = 0; i < s.count; ++i) s.forced[i] = 1;
      break;
    case CodeMetricFamily::kL2Blocked:
      ForEachRow(s, q.length, [&](size_t i, uint32_t r) {
        s.score[i] += w * ScoreL2Blocked(q, s.codes + r * s.stride);
        s.slack[i] += wu;
      });
      break;
    case CodeMetricFamily::kNormalizedL1:
      ForEachRow(s, q.length, [&](size_t i, uint32_t r) {
        double coarse = 0.0;
        double row_slack = 0.0;
        if (!ScoreNormalizedL1(q, s.codes + r * s.stride, s.code_sums[r],
                               &coarse, &row_slack)) {
          s.forced[i] = 1;
          return;
        }
        s.score[i] += w * coarse;
        // Same association as CodeKernelScoreRow — bit-identical slack.
        s.slack[i] += w * (q.uniform_slack + row_slack);
      });
      break;
    case CodeMetricFamily::kCanberraL1:
      ForEachRow(s, q.length, [&](size_t i, uint32_t r) {
        double coarse = 0.0;
        double row_slack = 0.0;
        ScoreCanberraL1(q, s.codes + r * s.stride, &coarse, &row_slack);
        s.score[i] += w * coarse;
        s.slack[i] += w * (q.uniform_slack + row_slack);
      });
      break;
    case CodeMetricFamily::kD1:
      ForEachRow(s, q.length, [&](size_t i, uint32_t r) {
        s.score[i] += w * ScoreD1(q, s.codes + r * s.stride);
        s.slack[i] += wu;
      });
      break;
  }
}

}  // namespace vr
