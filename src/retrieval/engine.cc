#include "retrieval/engine.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread.h"

namespace vr {

Result<std::unique_ptr<RetrievalEngine>> RetrievalEngine::Open(
    const std::string& dir, EngineOptions options) {
  if (options.enabled_features.empty()) {
    return Status::InvalidArgument("engine needs at least one feature");
  }
  auto engine =
      std::unique_ptr<RetrievalEngine>(new RetrievalEngine(options));
  engine->scorer_.SetNormalization(options.normalization);
  engine->extractors_.resize(kNumFeatureKinds);
  for (FeatureKind kind : options.enabled_features) {
    engine->extractors_[static_cast<size_t>(kind)] = MakeExtractor(kind);
  }
  DatabaseOptions db_options;
  db_options.create_if_missing = true;
  db_options.paranoid = options.paranoid;
  db_options.env = options.env;
  VR_ASSIGN_OR_RETURN(engine->store_, VideoStore::Open(dir, db_options));
  {
    // Open is single-threaded; both locks are taken to satisfy the
    // guarded-state contracts, not for contention.
    MutexLock writer(engine->writer_mutex_);
    WriterMutexLock lock(engine->mutex_);
    bool warm = false;
    bool have_generation = false;
    if (options.persist_matrix) {
      VR_ASSIGN_OR_RETURN(engine->matrix_store_,
                          MatrixStore::Open(dir, db_options.env));
      // The generation handshake needs the store's row count once; a
      // quarantined KEY_FRAMES table (degraded open) has no count, so
      // the matrix cache sits this run out entirely.
      Result<uint64_t> count = engine->store_->KeyFrameCount();
      if (count.ok()) {
        have_generation = true;
        engine->matrix_gen_ = MatrixStore::Generation{
            *count, engine->store_->PeekNextKeyFrameId()};
        VR_ASSIGN_OR_RETURN(
            warm, engine->matrix_store_->Load(engine->matrix_gen_,
                                              &engine->matrix_));
      } else {
        engine->matrix_store_.reset();
      }
    }
    if (warm) {
      // Warm open: the matrix came back from pages; rebuild only the
      // in-memory id map and range index from its rows — no store
      // scan, no feature re-parsing.
      for (size_t r = 0; r < engine->matrix_.rows(); ++r) {
        const FeatureMatrix::Row& row = engine->matrix_.row(r);
        engine->index_.InsertAt(row.i_id, row.range);
        engine->cache_by_id_.emplace(row.i_id, r);
      }
      VR_LOG(Info) << "warm-opened retrieval cache with "
                   << engine->matrix_.rows() << " key frames from "
                   << engine->matrix_store_->path();
    } else {
      VR_RETURN_NOT_OK(engine->WarmCache());
      if (engine->matrix_store_ != nullptr && have_generation) {
        const Status persisted = engine->matrix_store_->RewriteFull(
            engine->matrix_, engine->matrix_gen_);
        if (!persisted.ok()) {
          // The cache file is best-effort: queries don't need it, and
          // the next open will rebuild. Demote to memory-only.
          VR_LOG(Warn) << "matrix cache persist failed (disabled for "
                          "this run): "
                       << persisted.ToString();
          engine->matrix_store_.reset();
        }
      }
    }
  }
  // Rank shards: only when sharding can actually kick in (threshold >
  // 0) and more than one worker would run.
  const size_t cores = Thread::HardwareConcurrency();
  size_t rank_workers =
      options.rank_workers != 0 ? options.rank_workers : cores;
  if (!options.rank_oversubscribe) {
    // More rank shards than cores is pure overhead (context switches on
    // a serial machine); cap at what the hardware can actually overlap.
    rank_workers = std::min(rank_workers, cores);
  }
  engine->rank_shards_ =
      options.parallel_rank_threshold > 0 ? std::max<size_t>(1, rank_workers)
                                          : 1;
  // The fork pool serves extraction helpers, which the core budget caps
  // at cores - 1 at a time, and rank shards.
  const size_t pool_threads = std::max(cores, engine->rank_shards_);
  if (pool_threads > 1) {
    ThreadPoolOptions pool_options;
    pool_options.num_threads = pool_threads;
    pool_options.queue_capacity = pool_threads * 2;
    engine->fork_pool_ = std::make_unique<ThreadPool>(pool_options);
  }
  if (options.extraction_cache_capacity > 0) {
    engine->extraction_cache_ =
        std::make_unique<ExtractionCache>(options.extraction_cache_capacity);
  }
  return engine;
}

Status RetrievalEngine::WarmCache() {
  matrix_.Clear();
  cache_by_id_.clear();
  const Status scanned =
      store_->ScanKeyFrames([&](const KeyFrameRecord& record) {
    const GrayRange range{static_cast<int>(record.min),
                          static_cast<int>(record.max), 0};
    index_.InsertAt(record.i_id, range);
    cache_by_id_.emplace(record.i_id, matrix_.rows());
    matrix_.Append(record.i_id, record.v_id, range, record.features);
    return true;
  });
  if (!scanned.ok()) {
    // A quarantined KEY_FRAMES table (degraded open) leaves the cache
    // cold but the engine alive: metadata queries against VIDEO_STORE
    // still work, and DamageReport() explains the rest.
    if (scanned.IsCorruption() && !options_.paranoid) {
      VR_LOG(Warn) << "retrieval cache not warmed: " << scanned.ToString();
      return Status::OK();
    }
    return scanned;
  }
  if (!matrix_.empty()) {
    VR_LOG(Info) << "warmed retrieval cache with " << matrix_.rows()
                 << " key frames";
  }
  return Status::OK();
}

std::unique_ptr<ExtractionPlan> RetrievalEngine::AcquirePlan() const {
  {
    MutexLock lock(plan_mutex_);
    if (!plan_pool_.empty()) {
      std::unique_ptr<ExtractionPlan> plan = std::move(plan_pool_.back());
      plan_pool_.pop_back();
      return plan;
    }
  }
  std::vector<const FeatureExtractor*> enabled;
  enabled.reserve(options_.enabled_features.size());
  for (FeatureKind kind : options_.enabled_features) {
    enabled.push_back(extractors_[static_cast<size_t>(kind)].get());
  }
  return std::make_unique<ExtractionPlan>(std::move(enabled));
}

void RetrievalEngine::ReleasePlan(std::unique_ptr<ExtractionPlan> plan) const {
  // Bound the pool: a plan's warm scratch (arena, Gabor and Tamura
  // buffers, HSV plane) measures ~2 MB per context over the default
  // bank at 128x96 frames, and a plan that has forked has two contexts,
  // so keep at most a handful.
  static constexpr size_t kMaxPooledPlans = 8;
  MutexLock lock(plan_mutex_);
  if (plan_pool_.size() < kMaxPooledPlans) {
    plan_pool_.push_back(std::move(plan));
  }
}

Result<FeatureMap> RetrievalEngine::ExtractBank(
    ExtractionPlan& plan, const Image& img,
    ExtractionPlan::FrameTimings* timings) const {
  CoreBudget::Hold hold(extract_budget_);
  ForkHelpers helpers;
  helpers.pool = fork_pool_.get();
  helpers.count = 1;
  helpers.budget = &extract_budget_;
  return plan.ExtractAll(img, timings, helpers);
}

Result<RetrievalEngine::ExtractedQuery> RetrievalEngine::ExtractWithPlan(
    const Image& img, const std::vector<FeatureKind>& kinds) const {
  ExtractedQuery out;
  ExtractionCache::Entry entry;
  if (extraction_cache_ != nullptr && extraction_cache_->Lookup(img, &entry)) {
    // Only full enabled banks are cached and callers ask only for
    // enabled kinds, so every requested kind is in the entry.
    for (FeatureKind kind : kinds) {
      out.features.emplace(kind, std::move(entry.features.at(kind)));
    }
    out.range = FindRange(entry.histogram, options_.range);
    return out;
  }
  const bool full_bank = kinds == options_.enabled_features;
  std::unique_ptr<ExtractionPlan> plan = AcquirePlan();
  if (full_bank) {
    Result<FeatureMap> features = ExtractBank(*plan, img, nullptr);
    if (!features.ok()) return features.status();
    out.features = std::move(*features);
    if (plan->helpers_used() != 0) {
      query_counters_.forked_extractions.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  } else {
    for (FeatureKind kind : kinds) {
      Result<FeatureVector> fv = plan->ExtractOne(img, kind);
      if (!fv.ok()) return fv.status();
      out.features.emplace(kind, std::move(*fv));
    }
  }
  const GrayHistogram histogram = plan->histogram();
  ReleasePlan(std::move(plan));
  out.range = FindRange(histogram, options_.range);
  if (full_bank && extraction_cache_ != nullptr) {
    entry.features = out.features;
    entry.histogram = histogram;
    extraction_cache_->Insert(img, entry);
  }
  return out;
}

Status RetrievalEngine::RemoveVideo(int64_t v_id) {
  MutexLock writer(writer_mutex_);
  // The store commits first (one journal batch) without the query lock;
  // memory changes only after that succeeded, so a failed remove leaves
  // both serving the whole video.
  VR_ASSIGN_OR_RETURN(std::vector<int64_t> ids, store_->DeleteVideo(v_id));
  {
    WriterMutexLock lock(mutex_);
    for (int64_t i_id : ids) {
      auto it = cache_by_id_.find(i_id);
      if (it == cache_by_id_.end()) continue;
      const size_t pos = it->second;
      index_.Erase(i_id, matrix_.row(pos).range);
      // Swap-erase from the matrix, fixing the moved row's index.
      cache_by_id_.erase(it);
      matrix_.SwapRemove(pos);
      if (pos != matrix_.rows()) {
        cache_by_id_[matrix_.row(pos).i_id] = pos;
      }
    }
  }
  if (matrix_store_ != nullptr) {
    matrix_gen_.key_frame_count -= std::min<uint64_t>(
        matrix_gen_.key_frame_count, ids.size());
    // Writers are serialized, so a shared hold keeps matrix_ still
    // while queries go on reading it through the cache file's syncs.
    ReaderMutexLock lock(mutex_);
    const Status persisted = matrix_store_->Remove(ids, matrix_, matrix_gen_);
    if (!persisted.ok()) {
      VR_LOG(Warn) << "matrix cache remove failed (disabled for this run): "
                   << persisted.ToString();
      matrix_store_.reset();
    }
  }
  return Status::OK();
}

}  // namespace vr
