/// Property tests for the integer code-space coarse kernels.
///
/// The central claim of similarity/code_kernels.h is the certified
/// error bound: for every scored row,
///
///     |coarse(row) - exact(row)| <= uniform_slack + row_slack.
///
/// The two-stage query's top-k preservation proof stands entirely on
/// that inequality, so these tests sweep random quantization ranges,
/// weights, and vectors (queries inside and outside the corpus range)
/// for every extractor that opts into a kernel family, and assert the
/// bound dominates the observed error against the extractor's own
/// DistanceSpan. A FeatureMatrix round trip additionally pins the
/// append/widen/requantize path: after a range-widening append the
/// rebuilt codes and code sums must still satisfy the bound.

#include "similarity/code_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "features/extractor_registry.h"
#include "retrieval/feature_matrix.h"

namespace vr {
namespace {

struct KindCase {
  FeatureKind kind;
  size_t length;  ///< vector length used for rows and queries
  bool nonneg;    ///< family precondition: range and query >= 0
};

const std::vector<KindCase>& Cases() {
  static const std::vector<KindCase> cases = {
      {FeatureKind::kColorHistogram, 64, true},
      {FeatureKind::kGlcm, 6, false},
      {FeatureKind::kGabor, 48, false},
      {FeatureKind::kTamura, 18, false},
      {FeatureKind::kAutoCorrelogram, 32, true},
      {FeatureKind::kNaiveSignature, 24, false},
      {FeatureKind::kRegionGrowing, 15, false},
  };
  return cases;
}

TEST(CodeKernelsTest, BoundDominatesObservedErrorAcrossFamilies) {
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const KindCase& c : Cases()) {
    SCOPED_TRACE(FeatureKindName(c.kind));
    const auto extractor = MakeExtractor(c.kind);
    ASSERT_NE(extractor, nullptr);
    const CodeMetricSpec spec = extractor->code_metric();
    ASSERT_NE(spec.family, CodeMetricFamily::kNone);

    size_t scored = 0;
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(trial);
      // Random affine range. Kinds whose bound needs the non-negative
      // quadrant keep qmin >= 0.
      const double qmin = c.nonneg ? 2.0 * unit(rng) : -3.0 - unit(rng);
      const double qmax = qmin + 0.5 + 8.0 * unit(rng);
      const double span = qmax - qmin;

      // Stored rows respect the matrix invariant: values in
      // [qmin, qmax]. The query may leave the range (its bound grows).
      const auto draw_row = [&] {
        std::vector<double> v(c.length);
        for (size_t i = 0; i < c.length; ++i) {
          v[i] = qmin + span * unit(rng);
        }
        return v;
      };
      std::vector<double> query(c.length);
      for (size_t i = 0; i < c.length; ++i) {
        const double lo = c.nonneg ? 0.0 : qmin - 0.3 * span;
        query[i] = lo + (qmax + 0.3 * span - lo) * unit(rng);
      }

      CodeKernelQuery prepared;
      ASSERT_TRUE(PrepareCodeKernelQuery(spec, query.data(), c.length, qmin,
                                         qmax, &prepared));
      const double weight = 0.25 + 3.0 * unit(rng);

      std::vector<std::vector<double>> rows;
      for (int r = 0; r < 6; ++r) rows.push_back(draw_row());
      {
        // An in-range copy of the query: coarse must land within the
        // bound of an exact distance that is (near) zero.
        std::vector<double> clamped = query;
        for (double& v : clamped) v = std::min(qmax, std::max(qmin, v));
        rows.push_back(std::move(clamped));
      }

      for (const std::vector<double>& row : rows) {
        std::vector<uint8_t> codes(c.length);
        uint32_t code_sum = 0;
        for (size_t i = 0; i < c.length; ++i) {
          codes[i] = QuantizeCode(row[i], qmin, qmax);
          code_sum += codes[i];
        }
        double score = 0.0;
        double slack = 0.0;
        if (!CodeKernelScoreRow(prepared, codes.data(),
                                static_cast<uint32_t>(c.length), code_sum,
                                weight, &score, &slack)) {
          // Only the normalized-L1 family may refuse a row (its sum not
          // provably positive); the caller keeps such rows unscored.
          EXPECT_EQ(spec.family, CodeMetricFamily::kNormalizedL1);
          continue;
        }
        ++scored;
        const double exact = extractor->DistanceSpan(
            query.data(), c.length, row.data(), row.size());
        EXPECT_LE(std::fabs(score - weight * exact), slack)
            << "coarse " << score << " exact " << weight * exact;
      }
    }
    EXPECT_GT(scored, 0u);
  }
}

TEST(CodeKernelsTest, BatchMatchesRowLoopAndForcesUnscorableRows) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto extractor = MakeExtractor(FeatureKind::kColorHistogram);
  const CodeMetricSpec spec = extractor->code_metric();
  constexpr size_t kLen = 8;
  constexpr size_t kStride = 10;  // column wider than the rows
  constexpr size_t kRows = 5;

  std::vector<double> query(kLen);
  for (double& v : query) v = 0.05 + unit(rng);
  CodeKernelQuery prepared;
  ASSERT_TRUE(
      PrepareCodeKernelQuery(spec, query.data(), kLen, 0.0, 2.0, &prepared));

  std::vector<uint8_t> codes(kRows * kStride, 0);
  std::vector<uint32_t> lengths(kRows, kLen);
  std::vector<uint32_t> code_sums(kRows, 0);
  std::vector<uint8_t> present(kRows, 1);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t i = 0; i < kLen; ++i) {
      codes[r * kStride + i] = static_cast<uint8_t>(rng() % 256);
      code_sums[r] += codes[r * kStride + i];
    }
  }
  lengths[1] = kLen - 2;  // length mismatch -> forced
  present[3] = 0;         // absent feature -> forced

  std::vector<uint32_t> rows_idx = {0, 1, 2, 3, 4};
  std::vector<double> score(kRows, 0.0);
  std::vector<double> slack(kRows, 0.0);
  std::vector<uint8_t> forced(kRows, 0);
  CodeBatchSpan span;
  span.codes = codes.data();
  span.stride = kStride;
  span.lengths = lengths.data();
  span.code_sums = code_sums.data();
  span.present = present.data();
  span.rows = rows_idx.data();
  span.count = kRows;
  span.weight = 1.75;
  span.score = score.data();
  span.slack = slack.data();
  span.forced = forced.data();
  CodeKernelBatch(prepared, span);

  EXPECT_EQ(forced[1], 1);
  EXPECT_EQ(forced[3], 1);
  EXPECT_EQ(score[1], 0.0);
  EXPECT_EQ(score[3], 0.0);
  for (size_t r : {size_t{0}, size_t{2}, size_t{4}}) {
    EXPECT_EQ(forced[r], 0);
    double want_score = 0.0;
    double want_slack = 0.0;
    ASSERT_TRUE(CodeKernelScoreRow(prepared, codes.data() + r * kStride,
                                   lengths[r], code_sums[r], 1.75, &want_score,
                                   &want_slack));
    EXPECT_EQ(score[r], want_score) << "row " << r;  // bitwise
    EXPECT_EQ(slack[r], want_slack) << "row " << r;
  }
}

TEST(CodeKernelsTest, PrepareRejectsInvalidConfigurations) {
  CodeKernelQuery out;
  const double q[4] = {0.1, 0.2, 0.3, 0.4};
  // kNone opts out entirely.
  EXPECT_FALSE(PrepareCodeKernelQuery({}, q, 4, 0.0, 1.0, &out));
  const CodeMetricSpec l2{.family = CodeMetricFamily::kL2Blocked};
  // Degenerate, inverted, and non-finite ranges.
  EXPECT_FALSE(PrepareCodeKernelQuery(l2, q, 4, 1.0, 1.0, &out));
  EXPECT_FALSE(PrepareCodeKernelQuery(l2, q, 4, 2.0, 1.0, &out));
  EXPECT_FALSE(
      PrepareCodeKernelQuery(l2, q, 4, 0.0, std::nan(""), &out));
  const double bad[2] = {0.0, std::nan("")};
  EXPECT_FALSE(PrepareCodeKernelQuery(l2, bad, 2, 0.0, 1.0, &out));
  // Normalized L1 needs the non-negative quadrant and a positive sum.
  const CodeMetricSpec norm{.family = CodeMetricFamily::kNormalizedL1};
  EXPECT_FALSE(PrepareCodeKernelQuery(norm, q, 4, -0.5, 1.0, &out));
  const double neg[2] = {0.5, -0.1};
  EXPECT_FALSE(PrepareCodeKernelQuery(norm, neg, 2, 0.0, 1.0, &out));
  const double zeros[3] = {0.0, 0.0, 0.0};
  EXPECT_FALSE(PrepareCodeKernelQuery(norm, zeros, 3, 0.0, 1.0, &out));
  // d1 needs the non-negative quadrant too.
  const CodeMetricSpec d1{.family = CodeMetricFamily::kD1};
  EXPECT_FALSE(PrepareCodeKernelQuery(d1, neg, 2, 0.0, 1.0, &out));
  EXPECT_FALSE(PrepareCodeKernelQuery(d1, q, 4, -1.0, 1.0, &out));
  // A Canberra+tail query shorter than the Canberra range would use a
  // different exact metric entirely (Tamura's short-vector guard).
  const CodeMetricSpec tam{.family = CodeMetricFamily::kCanberraL1,
                           .canberra_end = 2,
                           .l1_tail = true};
  EXPECT_FALSE(PrepareCodeKernelQuery(tam, q, 1, 0.0, 1.0, &out));
  // Sanity: a valid configuration still prepares.
  EXPECT_TRUE(PrepareCodeKernelQuery(l2, q, 4, 0.0, 1.0, &out));
  EXPECT_EQ(out.length, 4u);
  EXPECT_GT(out.uniform_slack, 0.0);
}

TEST(CodeKernelsTest, QuantizeCodeMatchesAffineRounding) {
  EXPECT_EQ(QuantizeCode(0.0, 0.0, 1.0), 0);
  EXPECT_EQ(QuantizeCode(1.0, 0.0, 1.0), 255);
  EXPECT_EQ(QuantizeCode(0.5, 0.0, 1.0), 128);  // lround half away from 0
  EXPECT_EQ(QuantizeCode(-5.0, 0.0, 1.0), 0);   // clamped below
  EXPECT_EQ(QuantizeCode(7.0, 0.0, 1.0), 255);  // clamped above
  EXPECT_EQ(QuantizeCode(3.0, 2.0, 2.0), 0);    // degenerate range
  EXPECT_EQ(QuantizeCode(0.3, std::nan(""), 1.0), 0);
  // The matrix shadow columns delegate to the same definition.
  EXPECT_EQ(FeatureMatrix::QuantizeValue(0.25, 0.0, 1.0),
            QuantizeCode(0.25, 0.0, 1.0));
}

TEST(CodeKernelsTest, MatrixRequantizesOnWideningAndBoundStillHolds) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto extractor = MakeExtractor(FeatureKind::kGabor);
  const CodeMetricSpec spec = extractor->code_metric();
  constexpr size_t kLen = 16;

  FeatureMatrix matrix;
  std::vector<std::vector<double>> stored;
  const auto append = [&](std::vector<double> vals) {
    FeatureMap features;
    features[FeatureKind::kGabor] = FeatureVector("gabor", vals);
    matrix.Append(static_cast<int64_t>(stored.size()), 0, GrayRange{},
                  features);
    stored.push_back(std::move(vals));
  };
  for (int r = 0; r < 12; ++r) {
    std::vector<double> vals(kLen);
    for (double& v : vals) v = unit(rng);
    append(std::move(vals));
  }

  const auto& col = matrix.column(FeatureKind::kGabor);
  std::vector<double> query(kLen);
  for (double& v : query) v = unit(rng);

  const auto check_all = [&] {
    // The maintained code sums must match the (possibly re-quantized)
    // codes element for element.
    for (size_t r = 0; r < matrix.rows(); ++r) {
      uint32_t sum = 0;
      for (uint32_t i = 0; i < col.lengths[r]; ++i) {
        sum += col.code_row(r)[i];
      }
      EXPECT_EQ(col.code_sums[r], sum) << "row " << r;
    }
    CodeKernelQuery prepared;
    ASSERT_TRUE(PrepareCodeKernelQuery(spec, query.data(), kLen, col.qmin,
                                       col.qmax, &prepared));
    for (size_t r = 0; r < matrix.rows(); ++r) {
      double score = 0.0;
      double slack = 0.0;
      ASSERT_TRUE(CodeKernelScoreRow(prepared, col.code_row(r),
                                     col.lengths[r], col.code_sums[r], 1.0,
                                     &score, &slack));
      const double exact = extractor->DistanceSpan(query.data(), kLen,
                                                   stored[r].data(), kLen);
      EXPECT_LE(std::fabs(score - exact), slack) << "row " << r;
    }
  };
  check_all();

  // A mid-corpus append that blows out qmax forces a full column
  // re-quantization; the shadow must stay certified afterwards.
  const double old_qmax = col.qmax;
  std::vector<double> wide(kLen, 0.5);
  wide[3] = 40.0;
  append(std::move(wide));
  EXPECT_GT(col.qmax, old_qmax);
  check_all();
}

}  // namespace
}  // namespace vr
