#include <ctime>

#include "features/region_growing.h"
#include "imaging/ppm.h"
#include "retrieval/engine.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "video/video_reader.h"
#include "video/video_writer.h"

namespace vr {

namespace {

/// Serializes key-frame ids for the STREAM column (the paper stores the
/// "stream of keyframes" alongside the video).
std::vector<uint8_t> EncodeStream(const std::vector<int64_t>& ids) {
  std::string text;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) text += ' ';
    text += std::to_string(ids[i]);
  }
  return std::vector<uint8_t>(text.begin(), text.end());
}

uint64_t ToNanos(double ms) { return static_cast<uint64_t>(ms * 1e6); }

}  // namespace

Result<std::vector<KeyFrame>> RetrievalEngine::ExtractKeyFrames(
    const std::vector<Image>& frames) const {
  if (frames.empty()) {
    return Status::InvalidArgument("cannot ingest an empty video");
  }
  Stopwatch timer;
  VR_ASSIGN_OR_RETURN(std::vector<KeyFrame> keys, key_frames_.Extract(frames));
  ingest_counters_.frames_decoded.fetch_add(frames.size(),
                                            std::memory_order_relaxed);
  ingest_counters_.decode_ns.fetch_add(ToNanos(timer.ElapsedMillis()),
                                       std::memory_order_relaxed);
  return keys;
}

Result<PreparedKeyFrame> RetrievalEngine::PrepareKeyFrame(
    const std::string& video_name, const KeyFrame& key) const {
  Stopwatch stage_timer;
  PreparedKeyFrame out;
  out.frame_index = key.frame_index;
  out.i_name = StringPrintf("%s#%zu", video_name.c_str(), key.frame_index);
  const std::string pnm = EncodePnm(key.image);
  out.image.assign(pnm.begin(), pnm.end());
  // Fused extraction: one plan pass computes shared intermediates once
  // and feeds every enabled extractor (bit-identical to the per-
  // extractor loop this replaced — the extraction_plan_test parity
  // suite enforces it). The plan's histogram doubles as the range
  // finder's input, so the pixels are walked exactly once here.
  ExtractionPlan::FrameTimings timings;
  {
    std::unique_ptr<ExtractionPlan> plan = AcquirePlan();
    Result<FeatureMap> features = ExtractBank(*plan, key.image, &timings);
    VR_RETURN_NOT_OK(features.status());
    out.features = std::move(*features);
    out.range = FindRange(plan->histogram(), options_.range);
    ReleasePlan(std::move(plan));
  }
  for (int kind = 0; kind < kNumFeatureKinds; ++kind) {
    const uint64_t ns = timings.extractor_ns[static_cast<size_t>(kind)];
    if (ns != 0) {
      ingest_counters_.extractor_ns[static_cast<size_t>(kind)].fetch_add(
          ns, std::memory_order_relaxed);
    }
  }
  auto regions = out.features.find(FeatureKind::kRegionGrowing);
  if (regions != out.features.end() &&
      regions->second.size() > SimpleRegionGrowing::kMajorRegions) {
    out.major_regions = static_cast<int64_t>(
        regions->second[SimpleRegionGrowing::kMajorRegions]);
  }
  ingest_counters_.extract_ns.fetch_add(ToNanos(stage_timer.ElapsedMillis()),
                                        std::memory_order_relaxed);
  return out;
}

Result<std::vector<uint8_t>> RetrievalEngine::EncodeVideoBlob(
    const std::vector<Image>& frames) const {
  if (!options_.store_video_blob) return std::vector<uint8_t>{};
  if (frames.empty()) {
    return Status::InvalidArgument("cannot encode an empty video");
  }
  Stopwatch timer;
  VideoWriter writer;
  VR_RETURN_NOT_OK(writer.OpenMemory(frames[0].width(), frames[0].height(),
                                     frames[0].channels(), 12));
  for (const Image& f : frames) {
    VR_RETURN_NOT_OK(writer.Append(f));
  }
  VR_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, writer.FinishToMemory());
  ingest_counters_.decode_ns.fetch_add(ToNanos(timer.ElapsedMillis()),
                                       std::memory_order_relaxed);
  return blob;
}

Result<int64_t> RetrievalEngine::CommitPrepared(PreparedVideo video) {
  std::vector<PreparedVideo> group;
  group.push_back(std::move(video));
  VR_ASSIGN_OR_RETURN(std::vector<int64_t> v_ids, CommitGroup(std::move(group)));
  return v_ids.front();
}

Result<std::vector<int64_t>> RetrievalEngine::CommitGroup(
    std::vector<PreparedVideo> videos) {
  if (videos.empty()) return std::vector<int64_t>{};
  for (const PreparedVideo& video : videos) {
    if (video.keys.empty()) {
      return Status::InvalidArgument("prepared video has no key frames");
    }
  }
  Stopwatch timer;
  // Writers are serialized by the writer mutex; ids are assigned here,
  // in commit order, which is what makes parallel preparation reproduce
  // serial ingest bit-for-bit. Queries keep running until the publish.
  MutexLock writer(writer_mutex_);
  Env* env = options_.env != nullptr ? options_.env : Env::Default();
  const std::time_t now = static_cast<std::time_t>(env->NowUnixSeconds());
  char date[32];
  std::tm utc{};
  gmtime_r(&now, &utc);  // gmtime() proper keeps a shared static buffer
  std::strftime(date, sizeof(date), "%Y-%m-%d", &utc);

  std::vector<VideoWithKeyFrames> rows(videos.size());
  std::vector<int64_t> v_ids;
  v_ids.reserve(videos.size());
  size_t key_frames = 0;
  for (size_t v = 0; v < videos.size(); ++v) {
    PreparedVideo& video = videos[v];
    VideoWithKeyFrames& row = rows[v];
    const int64_t v_id = store_->NextVideoId();
    v_ids.push_back(v_id);
    std::vector<int64_t> key_ids;
    key_ids.reserve(video.keys.size());
    row.key_frames.reserve(video.keys.size());
    for (PreparedKeyFrame& key : video.keys) {
      KeyFrameRecord record;
      record.i_id = store_->NextKeyFrameId();
      record.i_name = std::move(key.i_name);
      record.image = std::move(key.image);
      record.min = key.range.min;
      record.max = key.range.max;
      record.major_regions = key.major_regions;
      record.v_id = v_id;
      record.features = std::move(key.features);
      key_ids.push_back(record.i_id);
      row.key_frames.push_back(std::move(record));
    }
    key_frames += key_ids.size();
    row.video.v_id = v_id;
    row.video.v_name = std::move(video.name);
    row.video.stream = EncodeStream(key_ids);
    row.video.dostore = date;
    row.video.video = std::move(video.video_blob);
  }
  // One journal batch and one sync for every row of the group: a crash
  // leaves each video of it whole or absent.
  VR_RETURN_NOT_OK(store_->PutVideosWithKeyFrames(rows));

  // Publish to the in-memory structures only after everything persisted.
  size_t first_new_row = 0;
  {
    WriterMutexLock lock(mutex_);
    first_new_row = matrix_.rows();
    for (const VideoWithKeyFrames& row : rows) {
      for (const KeyFrameRecord& record : row.key_frames) {
        const GrayRange range{static_cast<int>(record.min),
                              static_cast<int>(record.max), 0};
        index_.InsertAt(record.i_id, range);
        cache_by_id_.emplace(record.i_id, matrix_.rows());
        matrix_.Append(record.i_id, record.v_id, range, record.features);
      }
    }
  }
  if (matrix_store_ != nullptr) {
    // Incrementally persist the new rows to the matrix cache file. The
    // file is best-effort — the store above is the source of truth and
    // already committed — so a persist failure only demotes the cache
    // to memory-only for this run (the next open rebuilds it).
    matrix_gen_.key_frame_count += key_frames;
    matrix_gen_.next_key_frame_id = store_->PeekNextKeyFrameId();
    // Writers are serialized, so a shared hold keeps matrix_ still
    // while queries go on reading it through the cache file's syncs.
    ReaderMutexLock lock(mutex_);
    const Status persisted =
        matrix_store_->Append(matrix_, first_new_row, matrix_gen_);
    if (!persisted.ok()) {
      VR_LOG(Warn) << "matrix cache append failed (disabled for this run): "
                   << persisted.ToString();
      matrix_store_.reset();
    }
  }
  ingest_counters_.videos_ingested.fetch_add(videos.size(),
                                             std::memory_order_relaxed);
  ingest_counters_.keyframes_kept.fetch_add(key_frames,
                                            std::memory_order_relaxed);
  CheckpointIfJournalFull();
  ingest_counters_.commit_ns.fetch_add(ToNanos(timer.ElapsedMillis()),
                                       std::memory_order_relaxed);
  return v_ids;
}

Result<PreparedVideo> RetrievalEngine::PrepareFrames(
    const std::vector<Image>& frames, const std::string& name) const {
  VR_ASSIGN_OR_RETURN(std::vector<KeyFrame> keys, ExtractKeyFrames(frames));
  PreparedVideo video;
  video.name = name;
  video.keys.reserve(keys.size());
  for (const KeyFrame& key : keys) {
    VR_ASSIGN_OR_RETURN(PreparedKeyFrame prepared, PrepareKeyFrame(name, key));
    video.keys.push_back(std::move(prepared));
  }
  return video;
}

Result<int64_t> RetrievalEngine::IngestFrames(const std::vector<Image>& frames,
                                              const std::string& name) {
  VR_ASSIGN_OR_RETURN(PreparedVideo video, PrepareFrames(frames, name));
  VR_ASSIGN_OR_RETURN(video.video_blob, EncodeVideoBlob(frames));
  return CommitPrepared(std::move(video));
}

Result<int64_t> RetrievalEngine::IngestVideoFile(const std::string& path,
                                                 const std::string& name) {
  Stopwatch timer;
  VR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadVideoFile(path));
  VideoReader reader;
  VR_RETURN_NOT_OK(reader.OpenMemory(bytes));
  VR_ASSIGN_OR_RETURN(std::vector<Image> frames, reader.ReadAll());
  ingest_counters_.decode_ns.fetch_add(ToNanos(timer.ElapsedMillis()),
                                       std::memory_order_relaxed);
  VR_ASSIGN_OR_RETURN(PreparedVideo video, PrepareFrames(frames, name));
  // The decode verified every frame's checksum: store the file as given.
  if (options_.store_video_blob) video.video_blob = std::move(bytes);
  return CommitPrepared(std::move(video));
}

IngestStats RetrievalEngine::ingest_stats() const {
  IngestStats stats;
  stats.videos_ingested =
      ingest_counters_.videos_ingested.load(std::memory_order_relaxed);
  stats.frames_decoded =
      ingest_counters_.frames_decoded.load(std::memory_order_relaxed);
  stats.keyframes_kept =
      ingest_counters_.keyframes_kept.load(std::memory_order_relaxed);
  stats.decode_ms =
      ingest_counters_.decode_ns.load(std::memory_order_relaxed) / 1e6;
  stats.extract_ms =
      ingest_counters_.extract_ns.load(std::memory_order_relaxed) / 1e6;
  stats.commit_ms =
      ingest_counters_.commit_ns.load(std::memory_order_relaxed) / 1e6;
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    stats.extractor_ms[i] =
        ingest_counters_.extractor_ns[i].load(std::memory_order_relaxed) / 1e6;
  }
  return stats;
}

}  // namespace vr
