#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "retrieval/engine.h"
#include "similarity/code_kernels.h"
#include "similarity/dtw.h"
#include "similarity/metrics.h"
#include "util/string_util.h"
#include "similarity/normalizer.h"
#include "util/mutex.h"
#include "util/stopwatch.h"

namespace vr {

namespace {

/// Runs the between-stage hook; an unset hook never aborts.
Status RunCheckpoint(const QueryCheckpoint& checkpoint) {
  return checkpoint ? checkpoint() : Status::OK();
}

uint64_t ToNanos(double ms) { return static_cast<uint64_t>(ms * 1e6); }

/// An all-missing column has an empty values block whose data() may be
/// null; hand DistanceSpan a dereferenceable dummy
/// instead (every such row has length 0, so it is never read).
constexpr double kEmptyColumn = 0.0;

const double* ColumnBase(const FeatureMatrix::Column& col) {
  return col.values.empty() ? &kEmptyColumn : col.values.data();
}

}  // namespace

std::vector<uint32_t> RetrievalEngine::SelectCandidatesByRange(
    const GrayRange& query_range) {
  std::vector<uint32_t> out;
  if (!options_.use_index) {
    out.resize(matrix_.rows());
    std::iota(out.begin(), out.end(), 0u);
  } else {
    // Bucket lookup instead of the historical O(N) cache scan: the
    // index maps the query's bucket (plus lineage/overlap per the
    // mode) to frame ids, which resolve to matrix rows through
    // cache_by_id_. The parity suite pins this to the scan's result.
    const std::vector<int64_t> ids =
        index_.Lookup(query_range, options_.lookup_mode);
    out.reserve(ids.size());
    for (int64_t id : ids) {
      const auto it = cache_by_id_.find(id);
      if (it != cache_by_id_.end()) {
        out.push_back(static_cast<uint32_t>(it->second));
      }
    }
  }
  return out;
}

Result<std::vector<QueryResult>> RetrievalEngine::SelectAndRank(
    const FeatureMap& features, const GrayRange& range,
    const std::vector<FeatureKind>& kinds, size_t k,
    const QueryCheckpoint& checkpoint, CandidateStats* stats) {
  VR_RETURN_NOT_OK(RunCheckpoint(checkpoint));
  Stopwatch select_timer;
  const std::vector<uint32_t> candidates = SelectCandidatesByRange(range);
  const size_t total = matrix_.rows();
  query_counters_.select_ns.fetch_add(ToNanos(select_timer.ElapsedMillis()),
                                      std::memory_order_relaxed);
  query_counters_.candidates_scored.fetch_add(candidates.size(),
                                              std::memory_order_relaxed);
  query_counters_.candidates_total.fetch_add(total, std::memory_order_relaxed);
  if (stats != nullptr) *stats = CandidateStats{candidates.size(), total};
  VR_RETURN_NOT_OK(RunCheckpoint(checkpoint));
  Stopwatch rank_timer;
  Result<std::vector<QueryResult>> ranked = Rank(features, candidates, kinds, k);
  query_counters_.rank_ns.fetch_add(ToNanos(rank_timer.ElapsedMillis()),
                                    std::memory_order_relaxed);
  return ranked;
}

size_t RetrievalEngine::NumRankShards(size_t candidates) const {
  if (rank_shards_ <= 1 || candidates < options_.parallel_rank_threshold) {
    return 1;
  }
  const size_t by_work = (candidates + options_.parallel_rank_threshold - 1) /
                         options_.parallel_rank_threshold;
  return std::min(rank_shards_, by_work);
}

void RetrievalEngine::RunSharded(
    size_t shards, const std::function<void(size_t)>& fn) const {
  ForkHelpers helpers;
  helpers.pool = fork_pool_.get();
  helpers.count = shards - 1;
  ForkJoin(helpers, shards, [&fn](size_t shard, size_t) { fn(shard); });
}

bool RetrievalEngine::TwoStageEligible(const std::vector<FeatureKind>& kinds,
                                       size_t candidates, size_t k) const {
  if (!options_.two_stage || k == 0) return false;
  if (candidates < options_.two_stage_min_candidates) return false;
  // No pruning win when the coarse stage would keep everything anyway.
  if (k * kTwoStageCoarseFactor >= candidates) return false;
  // Batch normalizers (min-max, gaussian, rank) make every combined
  // score depend on the whole candidate set, so reranking a subset
  // could not reproduce the full-set scores bit-for-bit. Single-feature
  // queries skip fusion entirely and are always batch-independent.
  if (kinds.size() > 1 &&
      options_.normalization != NormalizationKind::kNone) {
    return false;
  }
  for (FeatureKind kind : kinds) {
    const FeatureMatrix::Column& col = matrix_.column(kind);
    if (!col.quantized || !(col.qmax > col.qmin)) return false;
  }
  return true;
}

RetrievalEngine::CoarseOutcome RetrievalEngine::CoarseSelect(
    const FeatureMap& query_features, const std::vector<uint32_t>& candidates,
    const std::vector<FeatureKind>& kinds, size_t keep) const {
  // Each kind is scored by its integer code-space kernel
  // (similarity/code_kernels.h): the query is quantized once here,
  // candidate rows are scanned as raw u8 codes — no per-row
  // dequantization buffer, no virtual dispatch in the row loop. Every
  // kernel certifies |coarse - exact| <= slack per row, so each
  // candidate c carries an interval [score_c - s_c, score_c + s_c]
  // that provably contains its exact (unnormalized weighted) score.
  // With theta = the keep-th smallest upper bound, every true top-keep
  // row's lower bound is <= theta, so keeping exactly the candidates
  // with lower <= theta (plus the rows no kernel can bound) preserves
  // the exact top-k bit-for-bit through the rerank. Under kNone fusion
  // the exact combined score is (sum w * d) / sum w — a positive
  // rescale of the unnormalized sum scored here, so the survivor set
  // is the same one the normalized intervals would produce.
  CoarseOutcome out;
  struct CoarseKind {
    CodeKernelQuery prepared;
    const FeatureMatrix::Column* column;
    double weight;  ///< fusion weight (1 for a single-kind query)
  };
  std::vector<CoarseKind> coarse;
  coarse.reserve(kinds.size());
  for (FeatureKind kind : kinds) {
    const FeatureExtractor* extractor =
        extractors_[static_cast<size_t>(kind)].get();
    const auto q_it = query_features.find(kind);
    // A missing query feature or disabled extractor makes RankExact
    // fail identically for any candidate subset, so skipping the kind
    // here cannot change observable behavior.
    if (extractor == nullptr || q_it == query_features.end()) continue;
    double weight = 1.0;
    if (kinds.size() > 1) {
      weight = scorer_.GetWeight(kind);
      if (weight <= 0) continue;  // Combine() skips zero-weight kinds
    }
    const FeatureMatrix::Column& col = matrix_.column(kind);
    CoarseKind ck;
    ck.column = &col;
    ck.weight = weight;
    if (!PrepareCodeKernelQuery(extractor->code_metric(),
                                q_it->second.values().data(),
                                q_it->second.size(), col.qmin, col.qmax,
                                &ck.prepared)) {
      // No kernel for this kind (or a precondition failed): no bound,
      // no pruning — the exact scan handles the whole candidate set.
      out.fallback = true;
      return out;
    }
    coarse.push_back(std::move(ck));
  }
  if (coarse.empty()) {
    out.fallback = true;
    return out;
  }

  // Sharded exactly like RankExact's distance stage: each shard
  // writes a disjoint slice, so the result is independent of the shard
  // count (and of whether the pool ran anything inline).
  const size_t n = candidates.size();
  std::vector<double> scores(n, 0.0);
  std::vector<double> slacks(n, 0.0);
  std::vector<uint8_t> forced(n, 0);
  const size_t shards = NumRankShards(n);
  const size_t chunk = (n + shards - 1) / shards;
  RunSharded(shards, [&](size_t shard) {
    const size_t begin = shard * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) return;
    for (const CoarseKind& ck : coarse) {
      CodeBatchSpan span;
      span.codes = ck.column->codes.data();
      span.stride = ck.column->stride;
      span.lengths = ck.column->lengths.data();
      span.code_sums = ck.column->code_sums.data();
      span.present = ck.column->present.data();
      span.rows = candidates.data() + begin;
      span.count = end - begin;
      span.weight = ck.weight;
      span.score = scores.data() + begin;
      span.slack = slacks.data() + begin;
      span.forced = forced.data() + begin;
      CodeKernelBatch(ck.prepared, span);
    }
  });

  // Margin selection. The extra inflation headroom (relative plus
  // absolute) swallows the floating-point noise of the selection
  // arithmetic itself and of the exact path's own summation/division,
  // so the real-arithmetic proof survives evaluation in doubles.
  const size_t kf = std::min(keep, n);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> uppers(n);
  for (size_t i = 0; i < n; ++i) {
    const double s =
        slacks[i] * (1.0 + 1e-9) + 1e-9 * (1.0 + std::fabs(scores[i]));
    slacks[i] = s;
    const double upper = scores[i] + s;
    uppers[i] = forced[i] || !std::isfinite(upper) ? kInf : upper;
  }
  std::vector<double> order(uppers);
  std::nth_element(order.begin(), order.begin() + static_cast<ptrdiff_t>(kf - 1),
                   order.end());
  const double theta = order[kf - 1];
  out.survivors.reserve(kf);
  for (size_t i = 0; i < n; ++i) {
    // Forced rows and NaN scores fail the > comparison and stay in.
    if (forced[i] || !(scores[i] - slacks[i] > theta)) {
      out.survivors.push_back(candidates[i]);
    }
  }
  if (out.survivors.size() >= n) {
    // The margin kept every candidate (wide quantization range or a
    // forced-heavy column): the "coarse" pass pruned nothing, so the
    // rerank would just repeat the exact scan after paying for the
    // code scan. Report a fallback instead.
    out.survivors.clear();
    out.fallback = true;
    return out;
  }
  out.margin_kept = out.survivors.size() > kf ? out.survivors.size() - kf : 0;
  return out;
}

Result<std::vector<QueryResult>> RetrievalEngine::Rank(
    const FeatureMap& query_features, const std::vector<uint32_t>& candidates,
    const std::vector<FeatureKind>& kinds, size_t k) const {
  if (TwoStageEligible(kinds, candidates.size(), k)) {
    CoarseOutcome outcome = CoarseSelect(query_features, candidates, kinds,
                                         k * kTwoStageCoarseFactor);
    if (outcome.fallback) {
      query_counters_.two_stage_fallbacks.fetch_add(1,
                                                    std::memory_order_relaxed);
      return RankExact(query_features, candidates, kinds, k);
    }
    query_counters_.two_stage_queries.fetch_add(1, std::memory_order_relaxed);
    query_counters_.coarse_candidates.fetch_add(outcome.survivors.size(),
                                                std::memory_order_relaxed);
    query_counters_.margin_kept.fetch_add(outcome.margin_kept,
                                          std::memory_order_relaxed);
    return RankExact(query_features, outcome.survivors, kinds, k);
  }
  return RankExact(query_features, candidates, kinds, k);
}

Result<std::vector<QueryResult>> RetrievalEngine::RankExact(
    const FeatureMap& query_features, const std::vector<uint32_t>& candidates,
    const std::vector<FeatureKind>& kinds, size_t k) const {
  if (candidates.empty()) return std::vector<QueryResult>{};

  // Resolve every requested feature up front so shard tasks are
  // infallible pure compute.
  struct KindState {
    FeatureKind kind;
    /// code_metric(), resolved once: it is the whole distance, so rows
    /// call MetricDistance directly.
    CodeMetricSpec metric;
    const FeatureVector* query;
    const FeatureMatrix::Column* column;
    double* out;  ///< this kind's distance column, length candidates.size()
  };
  std::vector<KindState> states;
  states.reserve(kinds.size());
  const size_t n = candidates.size();
  std::map<FeatureKind, std::vector<double>> columns;
  for (FeatureKind kind : kinds) {
    const auto q_it = query_features.find(kind);
    if (q_it == query_features.end()) {
      return Status::InvalidArgument(
          std::string("feature not extracted from query: ") +
          FeatureKindName(kind));
    }
    const FeatureExtractor* extractor =
        extractors_[static_cast<size_t>(kind)].get();
    if (extractor == nullptr) {
      return Status::InvalidArgument(
          std::string("feature not enabled: ") + FeatureKindName(kind));
    }
    const auto col_it = columns.emplace(kind, std::vector<double>(n)).first;
    states.push_back(KindState{kind, extractor->code_metric(),
                               &q_it->second, &matrix_.column(kind),
                               col_it->second.data()});
  }

  const size_t shards = NumRankShards(n);
  if (shards > 1) {
    query_counters_.sharded_ranks.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t chunk = (n + shards - 1) / shards;

  // Stage 1: raw per-feature distance columns over the candidate rows,
  // sharded by candidate range. Each shard writes a disjoint slice of
  // each column, so no two shards touch the same byte.
  RunSharded(shards, [&](size_t shard) {
    const size_t begin = shard * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) return;
    for (const KindState& st : states) {
      const FeatureMatrix::Column& col = *st.column;
      for (size_t i = begin; i < end; ++i) {
        const size_t row = candidates[i];
        // A key frame ingested without this feature ranks last for it.
        if (!col.present[row]) {
          st.out[i] = std::numeric_limits<double>::max();
          continue;
        }
        const double* values = ColumnBase(col) + row * col.stride;
        st.out[i] = MetricDistance(st.metric, st.query->values().data(),
                                   st.query->size(), values, col.lengths[row]);
      }
    }
  });

  // Stage 2: fusion. Normalization needs whole columns, so this stays
  // serial (it is O(kinds * N) flat-array work).
  std::vector<double> scores;
  if (kinds.size() == 1) {
    scores = columns.begin()->second;
  } else {
    VR_ASSIGN_OR_RETURN(scores, scorer_.Combine(columns));
  }

  // NaN-guarded strict total order: a NaN score would break
  // partial_sort's strict-weak-ordering contract (UB), so NaN ranks
  // explicitly worst and ties (including NaN-vs-NaN) fall to i_id.
  // The local alias lets the lambda read rows without re-stating the
  // caller's lock set (lambdas don't inherit REQUIRES); Rank itself
  // holds mutex_ shared, which is what makes the alias safe.
  const FeatureMatrix& matrix = matrix_;
  const auto better = [&](size_t a, size_t b) {
    const bool a_nan = std::isnan(scores[a]);
    const bool b_nan = std::isnan(scores[b]);
    if (a_nan != b_nan) return b_nan;
    if (!a_nan && scores[a] != scores[b]) return scores[a] < scores[b];
    return matrix.row(candidates[a]).i_id < matrix.row(candidates[b]).i_id;
  };

  // Stage 3: top-k selection. Sharded mode partial-sorts each slice
  // and merges the per-shard winners; because `better` is a strict
  // total order, the merged top-k is byte-identical to one global
  // partial_sort (the parity tests pin this).
  const size_t top = std::min(k, n);
  std::vector<size_t> order;
  if (shards <= 1) {
    order.resize(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<ptrdiff_t>(top), order.end(),
                      better);
    order.resize(top);
  } else {
    std::vector<std::vector<size_t>> shard_top(shards);
    RunSharded(shards, [&](size_t shard) {
      const size_t begin = shard * chunk;
      const size_t end = std::min(n, begin + chunk);
      if (begin >= end) return;
      std::vector<size_t>& local = shard_top[shard];
      local.resize(end - begin);
      std::iota(local.begin(), local.end(), begin);
      const size_t local_top = std::min(top, local.size());
      std::partial_sort(local.begin(),
                        local.begin() + static_cast<ptrdiff_t>(local_top),
                        local.end(), better);
      local.resize(local_top);
    });
    for (const std::vector<size_t>& local : shard_top) {
      order.insert(order.end(), local.begin(), local.end());
    }
    std::sort(order.begin(), order.end(), better);
    order.resize(std::min(top, order.size()));
  }

  std::vector<QueryResult> results;
  results.reserve(order.size());
  for (size_t idx : order) {
    QueryResult r;
    r.i_id = matrix_.row(candidates[idx]).i_id;
    r.v_id = matrix_.row(candidates[idx]).v_id;
    r.score = scores[idx];
    for (const auto& [kind, column] : columns) {
      r.feature_distances[kind] = column[idx];
    }
    results.push_back(std::move(r));
  }
  return results;
}

Result<std::vector<QueryResult>> RetrievalEngine::QueryByImage(
    const Image& query, size_t k, const QueryCheckpoint& checkpoint,
    CandidateStats* stats) {
  if (query.empty()) return Status::InvalidArgument("empty query image");
  VR_RETURN_NOT_OK(RunCheckpoint(checkpoint));
  Stopwatch extract_timer;
  VR_ASSIGN_OR_RETURN(ExtractedQuery extracted,
                      ExtractWithPlan(query, options_.enabled_features));
  query_counters_.extract_ns.fetch_add(ToNanos(extract_timer.ElapsedMillis()),
                                       std::memory_order_relaxed);
  ReaderMutexLock lock(mutex_);
  Result<std::vector<QueryResult>> ranked =
      SelectAndRank(extracted.features, extracted.range,
                    options_.enabled_features, k, checkpoint, stats);
  if (ranked.ok()) {
    query_counters_.image_queries.fetch_add(1, std::memory_order_relaxed);
  }
  return ranked;
}

Result<std::vector<QueryResult>> RetrievalEngine::QueryByImageSingleFeature(
    const Image& query, FeatureKind kind, size_t k,
    const QueryCheckpoint& checkpoint, CandidateStats* stats) {
  if (query.empty()) return Status::InvalidArgument("empty query image");
  if (extractors_[static_cast<size_t>(kind)] == nullptr) {
    return Status::InvalidArgument(std::string("feature not enabled: ") +
                                   FeatureKindName(kind));
  }
  VR_RETURN_NOT_OK(RunCheckpoint(checkpoint));
  Stopwatch extract_timer;
  const std::vector<FeatureKind> kinds = {kind};
  VR_ASSIGN_OR_RETURN(ExtractedQuery extracted, ExtractWithPlan(query, kinds));
  query_counters_.extract_ns.fetch_add(ToNanos(extract_timer.ElapsedMillis()),
                                       std::memory_order_relaxed);
  ReaderMutexLock lock(mutex_);
  Result<std::vector<QueryResult>> ranked = SelectAndRank(
      extracted.features, extracted.range, kinds, k, checkpoint, stats);
  if (ranked.ok()) {
    query_counters_.image_queries.fetch_add(1, std::memory_order_relaxed);
  }
  return ranked;
}

Result<std::vector<QueryResult>> RetrievalEngine::QueryByStoredId(
    int64_t i_id, size_t k, const QueryCheckpoint& checkpoint,
    CandidateStats* stats) {
  ReaderMutexLock lock(mutex_);
  VR_RETURN_NOT_OK(RunCheckpoint(checkpoint));
  // "Extraction" is a columnar read: materialize the stored feature
  // rows for every enabled kind present on this frame. No pixels are
  // decoded anywhere on this path.
  Stopwatch extract_timer;
  const auto it = cache_by_id_.find(i_id);
  if (it == cache_by_id_.end()) {
    return Status::NotFound(StringPrintf("key frame %lld is not indexed",
                                         static_cast<long long>(i_id)));
  }
  const size_t row = it->second;
  FeatureMap features;
  std::vector<FeatureKind> kinds;
  for (FeatureKind kind : options_.enabled_features) {
    const FeatureMatrix::Column& column = matrix_.column(kind);
    if (!column.present[row]) continue;
    const double* base = ColumnBase(column) + row * column.stride;
    features.emplace(
        kind,
        FeatureVector(extractors_[static_cast<size_t>(kind)]->name(),
                      std::vector<double>(base, base + column.lengths[row])));
    kinds.push_back(kind);
  }
  if (kinds.empty()) {
    return Status::NotFound(
        StringPrintf("key frame %lld has none of the enabled features",
                     static_cast<long long>(i_id)));
  }
  query_counters_.extract_ns.fetch_add(ToNanos(extract_timer.ElapsedMillis()),
                                       std::memory_order_relaxed);
  // Selection reuses the stored bucket (published at depth 0, which
  // the index comparator ignores — see RangeBucketIndex::Lookup).
  Result<std::vector<QueryResult>> ranked = SelectAndRank(
      features, matrix_.row(row).range, kinds, k, checkpoint, stats);
  if (ranked.ok()) {
    query_counters_.id_queries.fetch_add(1, std::memory_order_relaxed);
  }
  return ranked;
}

Result<std::vector<VideoQueryResult>> RetrievalEngine::QueryByVideo(
    const std::vector<Image>& query_frames, size_t k,
    const QueryCheckpoint& checkpoint, CandidateStats* stats) {
  if (query_frames.empty()) {
    return Status::InvalidArgument("empty query video");
  }
  VR_RETURN_NOT_OK(RunCheckpoint(checkpoint));
  // Key frames + features of the query sequence.
  Stopwatch extract_timer;
  VR_ASSIGN_OR_RETURN(std::vector<KeyFrame> query_keys,
                      key_frames_.Extract(query_frames));
  std::vector<FeatureMap> query_features;
  query_features.reserve(query_keys.size());
  for (const KeyFrame& kf : query_keys) {
    VR_ASSIGN_OR_RETURN(ExtractedQuery extracted,
                        ExtractWithPlan(kf.image, options_.enabled_features));
    query_features.push_back(std::move(extracted.features));
  }
  query_counters_.extract_ns.fetch_add(ToNanos(extract_timer.ElapsedMillis()),
                                       std::memory_order_relaxed);
  ReaderMutexLock lock(mutex_);
  VR_RETURN_NOT_OK(RunCheckpoint(checkpoint));

  // Group stored key frames per video, in id (i.e. temporal) order.
  // The alias exists for the lambdas below, which don't inherit this
  // function's lock set; the reader lock above is what makes it safe.
  const FeatureMatrix& matrix = matrix_;
  std::map<int64_t, std::vector<uint32_t>> by_video;
  for (size_t r = 0; r < matrix.rows(); ++r) {
    by_video[matrix.row(r).v_id].push_back(static_cast<uint32_t>(r));
  }
  for (auto& [v_id, rows] : by_video) {
    std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
      return matrix.row(a).i_id < matrix.row(b).i_id;
    });
  }

  // Pair cost: mean of per-feature distances, each squashed to [0, 1]
  // with x / (1 + x) so no single feature's scale dominates.
  const auto pair_cost = [&](const FeatureMap& qf, uint32_t row) {
    double acc = 0.0;
    int count = 0;
    for (FeatureKind kind : options_.enabled_features) {
      const auto a = qf.find(kind);
      if (a == qf.end()) continue;
      const FeatureMatrix::Column& column = matrix.column(kind);
      if (!column.present[row]) continue;
      const double d =
          extractors_[static_cast<size_t>(kind)]->DistanceSpan(
              a->second.values().data(), a->second.size(),
              ColumnBase(column) + static_cast<size_t>(row) * column.stride,
              column.lengths[row]);
      acc += d / (1.0 + d);
      ++count;
    }
    return count > 0 ? acc / count : 1.0;
  };

  Stopwatch rank_timer;
  std::vector<VideoQueryResult> results;
  for (const auto& [v_id, rows] : by_video) {
    VR_RETURN_NOT_OK(RunCheckpoint(checkpoint));
    VR_ASSIGN_OR_RETURN(
        double score,
        DtwDistanceCost(query_features.size(), rows.size(),
                        [&](size_t i, size_t j) {
                          return pair_cost(query_features[i], rows[j]);
                        }));
    results.push_back(VideoQueryResult{v_id, score});
  }
  std::sort(results.begin(), results.end(),
            [](const VideoQueryResult& a, const VideoQueryResult& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.v_id < b.v_id;
            });
  if (results.size() > k) results.resize(k);
  query_counters_.rank_ns.fetch_add(ToNanos(rank_timer.ElapsedMillis()),
                                    std::memory_order_relaxed);

  // Honest clip-level pruning stats: video search scores every stored
  // frame once per query key frame (no bucket pruning applies), so the
  // counts accumulate across the clip.
  const size_t scored = query_features.size() * matrix_.rows();
  if (stats != nullptr) *stats = CandidateStats{scored, scored};
  query_counters_.candidates_scored.fetch_add(scored,
                                              std::memory_order_relaxed);
  query_counters_.candidates_total.fetch_add(scored,
                                             std::memory_order_relaxed);
  query_counters_.video_queries.fetch_add(1, std::memory_order_relaxed);
  return results;
}

QueryStats RetrievalEngine::query_stats() const {
  QueryStats stats;
  stats.image_queries =
      query_counters_.image_queries.load(std::memory_order_relaxed);
  stats.video_queries =
      query_counters_.video_queries.load(std::memory_order_relaxed);
  stats.sharded_ranks =
      query_counters_.sharded_ranks.load(std::memory_order_relaxed);
  stats.candidates_scored =
      query_counters_.candidates_scored.load(std::memory_order_relaxed);
  stats.candidates_total =
      query_counters_.candidates_total.load(std::memory_order_relaxed);
  stats.extract_ms =
      query_counters_.extract_ns.load(std::memory_order_relaxed) / 1e6;
  stats.select_ms =
      query_counters_.select_ns.load(std::memory_order_relaxed) / 1e6;
  stats.rank_ms =
      query_counters_.rank_ns.load(std::memory_order_relaxed) / 1e6;
  stats.id_queries = query_counters_.id_queries.load(std::memory_order_relaxed);
  stats.two_stage_queries =
      query_counters_.two_stage_queries.load(std::memory_order_relaxed);
  stats.coarse_candidates =
      query_counters_.coarse_candidates.load(std::memory_order_relaxed);
  stats.two_stage_fallbacks =
      query_counters_.two_stage_fallbacks.load(std::memory_order_relaxed);
  stats.margin_kept =
      query_counters_.margin_kept.load(std::memory_order_relaxed);
  stats.forked_extractions =
      query_counters_.forked_extractions.load(std::memory_order_relaxed);
  if (extraction_cache_ != nullptr) {
    const ExtractionCache::Stats cache = extraction_cache_->stats();
    stats.cache_hits = cache.hits;
    stats.cache_misses = cache.misses;
  }
  return stats;
}

}  // namespace vr
