/// \file video_store.h
/// \brief The paper's VIDEO_STORE / KEY_FRAMES schema over the embedded
/// database (§3.4 "Database Design").
///
/// Columns mirror the paper's Oracle DDL: VIDEO_STORE(V_ID, V_NAME,
/// VIDEO ORDVideo -> BLOB, STREAM BLOB, DOSTORE DATE -> TEXT) and
/// KEY_FRAMES(I_ID, I_NAME, IMAGE ORDImage -> BLOB, MIN, MAX,
/// SCH/GLCM/GABOR/TAMURA VARCHAR -> TEXT, MAJORREGIONS, V_ID), extended
/// with TEXT columns for the remaining extractors (ACC, NAIVE, REGIONS)
/// so every Table-1 feature persists.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "features/feature_vector.h"
#include "storage/database.h"

namespace vr {

/// \brief One VIDEO_STORE row.
struct VideoRecord {
  int64_t v_id = 0;
  std::string v_name;
  std::vector<uint8_t> video;   ///< .vsv container bytes (ORDVideo)
  std::vector<uint8_t> stream;  ///< serialized key-frame id list (STREAM)
  std::string dostore;          ///< ingestion date (DOSTORE)
};

/// \brief One KEY_FRAMES row.
struct KeyFrameRecord {
  int64_t i_id = 0;
  std::string i_name;
  std::vector<uint8_t> image;  ///< PNM-encoded key frame (ORDImage)
  int64_t min = 0;             ///< range-finder bucket lower bound
  int64_t max = 255;           ///< range-finder bucket upper bound
  int64_t major_regions = 0;   ///< MAJORREGIONS column
  int64_t v_id = 0;            ///< owning video
  /// Feature strings keyed by extractor; stored in the TEXT columns.
  std::map<FeatureKind, FeatureVector> features;
};

/// \brief One video of an ingest commit: its VIDEO_STORE row and its
/// KEY_FRAMES rows.
struct VideoWithKeyFrames {
  VideoRecord video;
  std::vector<KeyFrameRecord> key_frames;
};

/// \brief Typed facade over the two tables, with the paper's indexes.
class VideoStore {
 public:
  /// Opens/creates the store inside a database directory. Creates the
  /// V_ID foreign-key index. Refuses (InvalidArgument, naming it) a
  /// store that still has the retired (MIN, MAX) index kRetiredRangeIndex,
  /// which every write paid for and nothing read.
  static Result<std::unique_ptr<VideoStore>> Open(const std::string& dir);

  /// Same, with explicit database options (degraded open, custom Env).
  /// With options.paranoid = false a damaged table is quarantined: its
  /// accessors return Corruption while the other table keeps serving,
  /// and DamageReport() lists the casualties.
  static Result<std::unique_ptr<VideoStore>> Open(
      const std::string& dir, const DatabaseOptions& options);

  /// \name VIDEO_STORE operations (the Administrator role of Figure 2).
  /// @{
  Result<int64_t> PutVideo(const VideoRecord& record);
  Result<VideoRecord> GetVideo(int64_t v_id) const;
  /// Deletes the video row and all of its key frames as one journal
  /// batch (one fsync; all or nothing across a crash). Returns the
  /// deleted key-frame ids.
  Result<std::vector<int64_t>> DeleteVideo(int64_t v_id);
  /// Lists v_id/v_name/dostore without materializing video blobs.
  Result<std::vector<VideoRecord>> ListVideos() const;
  /// Metadata search (the paper's "query ... as well on metadata"):
  /// case-sensitive substring match over V_NAME, blobs not materialized.
  Result<std::vector<VideoRecord>> FindVideosByName(
      const std::string& substring) const;
  /// @}

  /// \name KEY_FRAMES operations.
  /// @{
  Result<int64_t> PutKeyFrame(const KeyFrameRecord& record);
  /// Batch append: every record (with its i_id preassigned, like
  /// PutKeyFrame's caller does) is journaled under a single fsync and
  /// applied in order. All-or-nothing on journaling errors; see
  /// Database::InsertBatch for the contract.
  Status PutKeyFrames(const std::vector<KeyFrameRecord>& records);
  /// The ingest commit: every video's VIDEO_STORE row and all of its
  /// KEY_FRAMES rows, in order, as one journal batch (one fsync), so a
  /// crash leaves each video whole or absent, never key frames without
  /// their video row.
  Status PutVideosWithKeyFrames(const std::vector<VideoWithKeyFrames>& videos);
  Result<KeyFrameRecord> GetKeyFrame(int64_t i_id) const;
  Status DeleteKeyFrame(int64_t i_id);
  /// Key-frame ids belonging to a video (via the V_ID index).
  Result<std::vector<int64_t>> KeyFrameIdsOfVideo(int64_t v_id) const;
  /// Scans all key frames without materializing image blobs; the
  /// callback returns false to stop.
  Status ScanKeyFrames(
      const std::function<bool(const KeyFrameRecord&)>& cb) const;
  /// @}

  /// Next unused ids (maintained from the max at open). Calling these
  /// consumes the id.
  int64_t NextVideoId();
  int64_t NextKeyFrameId();

  /// Reads the id watermarks without consuming them. With
  /// KeyFrameCount() these form the generation handshake that
  /// validates the persisted FeatureMatrix cache (matrix_store.h).
  int64_t PeekNextVideoId() const { return next_video_id_; }
  int64_t PeekNextKeyFrameId() const { return next_key_frame_id_; }

  Result<uint64_t> VideoCount() const;
  Result<uint64_t> KeyFrameCount() const;

  /// Flushes everything and truncates the journal.
  Status Checkpoint() { return db_->Checkpoint(); }

  Database* database() { return db_.get(); }

  /// Aggregated buffer-pool statistics over both tables' page files
  /// (surfaced by the service stats RPC). Thread-safe.
  PagerStats GetPagerStats() const { return db_->GetPagerStats(); }

  /// Tables quarantined by a degraded open (empty when healthy).
  const std::vector<TableDamage>& DamageReport() const {
    return db_->DamageReport();
  }

  static constexpr const char* kVideoTable = "VIDEO_STORE";
  static constexpr const char* kKeyFrameTable = "KEY_FRAMES";
  static constexpr const char* kVideoIdIndex = "idx_v_id";
  /// The KEY_FRAMES (MIN, MAX) index older stores carry; Open refuses
  /// them (candidate selection reads the in-memory RangeBucketIndex).
  static constexpr const char* kRetiredRangeIndex = "idx_min_max";

 private:
  VideoStore() = default;

  Result<KeyFrameRecord> RowToKeyFrame(const Row& row) const;
  static Result<Row> KeyFrameToRow(const KeyFrameRecord& record);
  static Row VideoToRow(const VideoRecord& record);
  /// Appends the KEY_FRAMES rows of \p key_frames to \p rows.
  static Status AddKeyFrameRows(const std::vector<KeyFrameRecord>& key_frames,
                                std::vector<Database::TableRow>* rows);
  /// Advances the key-frame id watermark past \p key_frames.
  void AdvanceKeyFrameIds(const std::vector<KeyFrameRecord>& key_frames);
  /// Corruption when \p table (quarantined by a degraded open) is null.
  Status RequireHealthy(const Table* table, const char* name) const;

  std::unique_ptr<Database> db_;
  Table* videos_ = nullptr;
  Table* key_frames_ = nullptr;
  int64_t next_video_id_ = 1;
  int64_t next_key_frame_id_ = 1;
};

}  // namespace vr
