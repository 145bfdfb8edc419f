/// \file feature_matrix.h
/// \brief Structure-of-arrays feature cache for the ranking hot loop.
///
/// The engine used to keep one `std::map<FeatureKind, FeatureVector>`
/// per cached key frame, so every distance in `Rank` paid a map lookup
/// plus two pointer hops into scattered heap vectors. FeatureMatrix
/// stores the same data columnar: one contiguous `double` block per
/// FeatureKind holding every row's values at a fixed stride, plus a
/// parallel row array with the (i_id, v_id, range) metadata. A distance
/// column over N candidates is then a tight loop of
/// `FeatureExtractor::DistanceSpan` calls over flat memory, without
/// chasing pointers.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "features/feature_vector.h"
#include "index/range_finder.h"

namespace vr {
// FeatureMap (the row-oriented transpose of this matrix) lives with
// FeatureVector in features/feature_vector.h.

/// \brief Columnar store of per-key-frame features.
///
/// Thread-safety: externally synchronized, exactly like
/// RangeBucketIndex. The const accessors are safe to call concurrently
/// with each other (including from ranking shards on pool threads);
/// Append/SwapRemove/Clear require exclusive access. The
/// RetrievalEngine enforces this with its reader/writer lock — queries
/// (and the shard tasks they fan out) run under the shared side,
/// ingest/remove under the exclusive side, so a shard never observes a
/// column mid-relayout.
class FeatureMatrix {
 public:
  /// Per-row metadata, parallel to every column.
  struct Row {
    int64_t i_id = 0;   ///< key-frame id
    int64_t v_id = 0;   ///< owning video
    GrayRange range;    ///< range-finder bucket
  };

  /// One FeatureKind's values for every row.
  struct Column {
    /// Doubles reserved per row; row r starts at values[r * stride].
    /// Grows (with a re-layout) when a longer vector arrives.
    size_t stride = 0;
    /// rows() * stride doubles; the tail of each row beyond its length
    /// is zero-filled.
    std::vector<double> values;
    /// Actual value count of each row (0 when the feature is absent).
    std::vector<uint32_t> lengths;
    /// 1 when the row was ingested with this feature, else 0. A row can
    /// be present with length 0 (a legitimately empty vector) — rank
    /// penalties key off present, not lengths.
    std::vector<uint8_t> present;
    /// 8-bit scalar-quantized shadow of `values` (same stride-packed
    /// layout): codes[r*stride+i] == QuantizeValue(values[r*stride+i],
    /// qmin, qmax) for i < lengths[r]; the tail is zero. The coarse
    /// stage of a two-stage query scans these instead of the doubles.
    std::vector<uint8_t> codes;
    /// Per-row sum of the codes over the row's length, maintained with
    /// the shadow. The normalized-L1 coarse kernel reconstructs each
    /// row's value sum as lengths[r] * qmin + step * code_sums[r]
    /// without touching the codes a second time.
    std::vector<uint32_t> code_sums;
    /// Affine quantization range: the min/max over every present value
    /// ever appended to this column. When an append extends the range
    /// the whole column is re-quantized, so the invariant above holds
    /// after every mutation (MatrixStore then rewrites the persisted
    /// codes — see the matrix-generation invariants in DESIGN.md).
    double qmin = 0.0;
    double qmax = 0.0;
    /// False until the first present value arrives (qmin/qmax invalid).
    bool quantized = false;

    /// Start of row \p r's values.
    const double* row(size_t r) const { return values.data() + r * stride; }
    /// Start of row \p r's quantized codes.
    const uint8_t* code_row(size_t r) const {
      return codes.data() + r * stride;
    }
  };

  /// One kind's slice of a row loaded back from persisted storage
  /// (MatrixStore's open path; bypasses FeatureMap materialization).
  struct LoadedColumn {
    uint8_t present = 0;
    uint32_t length = 0;
    const double* values = nullptr;  ///< length doubles (null when 0)
    const uint8_t* codes = nullptr;  ///< length codes (null when 0)
  };

  size_t rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const Row& row(size_t r) const { return rows_[r]; }
  const std::vector<Row>& row_meta() const { return rows_; }
  const Column& column(FeatureKind kind) const {
    return columns_[static_cast<size_t>(kind)];
  }

  /// Appends one key frame's features as the new last row. Kinds absent
  /// from \p features get a zero-length, not-present row in their
  /// column; every column always holds exactly rows() entries.
  /// Maintains the quantized shadow: the new row is coded with the
  /// current range, or the whole column is re-quantized when the row
  /// extends it.
  void Append(int64_t i_id, int64_t v_id, const GrayRange& range,
              const FeatureMap& features);

  /// Appends one row straight from persisted bytes (values + codes per
  /// kind), trusting the caller that the codes match the quantization
  /// ranges installed via SetQuantRange. MatrixStore's warm-open loader
  /// uses this to stream columns without building FeatureMaps.
  void AppendLoaded(const Row& row,
                    const std::array<LoadedColumn, kNumFeatureKinds>& cols);

  /// Installs a column's persisted quantization range before a
  /// AppendLoaded replay (codes on disk were produced under it).
  void SetQuantRange(FeatureKind kind, double qmin, double qmax,
                     bool quantized);

  /// Removes row \p pos by moving the last row into its slot (the same
  /// swap-erase the engine uses for cache_by_id_; callers re-point the
  /// moved row's id mapping). \p pos must be < rows().
  void SwapRemove(size_t pos);

  /// Drops every row; column strides are kept so a rebuild does not
  /// re-layout. Quantization ranges reset (a rebuild re-derives them).
  void Clear();

  /// Maps one value into the column's u8 code space: 0 for a degenerate
  /// range, else round(255 * (v - qmin) / (qmax - qmin)) clamped to
  /// [0, 255]. Deterministic — the persisted codes, the in-memory
  /// shadow and the query-side coding all use exactly this function
  /// (it delegates to QuantizeCode in similarity/code_kernels.h, the
  /// single definition the coarse kernels' error bounds are proved
  /// against).
  static uint8_t QuantizeValue(double v, double qmin, double qmax);

 private:
  /// Widens \p col's stride to hold \p needed values per row, moving
  /// the existing rows (values and codes) to the new layout.
  static void Relayout(Column& col, size_t rows, size_t needed);
  /// Recomputes every row's codes from values under the current range.
  static void RequantizeColumn(Column& col, size_t rows);

  std::vector<Row> rows_;
  std::array<Column, kNumFeatureKinds> columns_;
};

}  // namespace vr
