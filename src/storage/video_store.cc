#include "storage/video_store.h"

#include <algorithm>

#include "storage/query.h"
#include "util/string_util.h"

namespace vr {

namespace {

// KEY_FRAMES column order.
enum KfCol : size_t {
  kIId = 0,
  kIName = 1,
  kImage = 2,
  kMin = 3,
  kMax = 4,
  kMajorRegions = 5,
  kVId = 6,
  kFeatureBase = 7,  // one TEXT column per FeatureKind, in enum order
};

// VIDEO_STORE column order.
enum VCol : size_t {
  kVIdCol = 0,
  kVName = 1,
  kVideoBlob = 2,
  kStreamBlob = 3,
  kDoStore = 4,
};

Result<Schema> VideoSchema() {
  return Schema::Create(
      {
          {"V_ID", ColumnType::kInt64, false},
          {"V_NAME", ColumnType::kText, true},
          {"VIDEO", ColumnType::kBlob, true},
          {"STREAM", ColumnType::kBlob, true},
          {"DOSTORE", ColumnType::kText, true},
      },
      "V_ID");
}

Result<Schema> KeyFrameSchema() {
  std::vector<Column> columns = {
      {"I_ID", ColumnType::kInt64, false},
      {"I_NAME", ColumnType::kText, true},
      {"IMAGE", ColumnType::kBlob, true},
      {"MIN", ColumnType::kInt64, false},
      {"MAX", ColumnType::kInt64, false},
      {"MAJORREGIONS", ColumnType::kInt64, true},
      {"V_ID", ColumnType::kInt64, false},
  };
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    Column c;
    c.name = FeatureColumnName(static_cast<FeatureKind>(i));
    c.type = ColumnType::kText;
    c.nullable = true;
    columns.push_back(std::move(c));
  }
  return Schema::Create(std::move(columns), "I_ID");
}

/// Rows are read by column position, so a persisted table whose
/// layout differs from \p expected (e.g. written with another set of
/// feature kinds) would be misread; reject it instead, naming the
/// first column that differs.
Status CheckSchema(const char* table, const Schema& persisted,
                   const Result<Schema>& expected) {
  VR_RETURN_NOT_OK(expected.status());
  if (persisted == *expected) return Status::OK();
  const std::vector<Column>& have = persisted.columns();
  const std::vector<Column>& want = expected->columns();
  size_t i = 0;
  while (i < have.size() && i < want.size() && have[i] == want[i]) ++i;
  const auto name = [i](const std::vector<Column>& cols) {
    return i < cols.size() ? cols[i].name : std::string("(none)");
  };
  return Status::InvalidArgument(
      StringPrintf("%s has another column layout: column %zu is %s, "
                   "expected %s",
                   table, i, name(have).c_str(), name(want).c_str()));
}

}  // namespace

Result<std::unique_ptr<VideoStore>> VideoStore::Open(const std::string& dir) {
  DatabaseOptions options;
  options.create_if_missing = true;
  return Open(dir, options);
}

Result<std::unique_ptr<VideoStore>> VideoStore::Open(
    const std::string& dir, const DatabaseOptions& options) {
  auto store = std::unique_ptr<VideoStore>(new VideoStore());
  VR_ASSIGN_OR_RETURN(store->db_, Database::Open(dir, options));

  Result<Table*> videos = store->db_->GetTable(kVideoTable);
  if (videos.ok()) {
    VR_RETURN_NOT_OK(
        CheckSchema(kVideoTable, videos.value()->schema(), VideoSchema()));
    store->videos_ = videos.value();
  } else if (videos.status().IsNotFound()) {
    VR_ASSIGN_OR_RETURN(Schema schema, VideoSchema());
    VR_ASSIGN_OR_RETURN(store->videos_,
                        store->db_->CreateTable(kVideoTable, schema));
  } else if (!videos.status().IsCorruption()) {
    return videos.status();
  }
  // Corruption = quarantined by a degraded open: leave the pointer
  // null; accessors report it, the other table keeps serving.

  Result<Table*> frames = store->db_->GetTable(kKeyFrameTable);
  if (frames.ok()) {
    VR_RETURN_NOT_OK(CheckSchema(kKeyFrameTable, frames.value()->schema(),
                                 KeyFrameSchema()));
    store->key_frames_ = frames.value();
  } else if (frames.status().IsNotFound()) {
    VR_ASSIGN_OR_RETURN(Schema schema, KeyFrameSchema());
    VR_ASSIGN_OR_RETURN(store->key_frames_,
                        store->db_->CreateTable(kKeyFrameTable, schema));
    IndexSpec range_index;
    range_index.name = kRangeIndex;
    range_index.columns = {"MIN", "MAX"};
    range_index.bits = {8, 8};
    VR_RETURN_NOT_OK(store->db_->CreateIndex(kKeyFrameTable, range_index));
    IndexSpec vid_index;
    vid_index.name = kVideoIdIndex;
    vid_index.columns = {"V_ID"};
    vid_index.bits = {32};
    VR_RETURN_NOT_OK(store->db_->CreateIndex(kKeyFrameTable, vid_index));
  } else if (!frames.status().IsCorruption()) {
    return frames.status();
  }

  // Recover id counters (from whichever tables are healthy).
  if (store->videos_ != nullptr) {
    VR_RETURN_NOT_OK(store->videos_->Scan(
        [&](const Row& row) {
          store->next_video_id_ =
              std::max(store->next_video_id_, row[kVIdCol].AsInt64() + 1);
          return true;
        },
        /*resolve_blobs=*/false));
  }
  if (store->key_frames_ != nullptr) {
    VR_RETURN_NOT_OK(store->key_frames_->Scan(
        [&](const Row& row) {
          store->next_key_frame_id_ =
              std::max(store->next_key_frame_id_, row[kIId].AsInt64() + 1);
          return true;
        },
        /*resolve_blobs=*/false));
  }
  return store;
}

Status VideoStore::RequireHealthy(const Table* table,
                                  const char* name) const {
  if (table == nullptr) {
    return Status::Corruption(std::string(name) +
                              " is quarantined; see DamageReport()");
  }
  return Status::OK();
}

int64_t VideoStore::NextVideoId() { return next_video_id_++; }
int64_t VideoStore::NextKeyFrameId() { return next_key_frame_id_++; }

Row VideoStore::VideoToRow(const VideoRecord& record) {
  return {
      Value(record.v_id),
      Value(record.v_name),
      Value::Blob(record.video),
      Value::Blob(record.stream),
      Value(record.dostore),
  };
}

Result<int64_t> VideoStore::PutVideo(const VideoRecord& record) {
  VR_ASSIGN_OR_RETURN(int64_t pk, db_->Insert(kVideoTable, VideoToRow(record)));
  next_video_id_ = std::max(next_video_id_, pk + 1);
  return pk;
}

Result<VideoRecord> VideoStore::GetVideo(int64_t v_id) const {
  VR_RETURN_NOT_OK(RequireHealthy(videos_, kVideoTable));
  VR_ASSIGN_OR_RETURN(Row row, videos_->Get(v_id));
  VideoRecord out;
  out.v_id = row[kVIdCol].AsInt64();
  out.v_name = row[kVName].is_null() ? "" : row[kVName].AsText();
  if (row[kVideoBlob].is_blob()) out.video = row[kVideoBlob].AsBlob();
  if (row[kStreamBlob].is_blob()) out.stream = row[kStreamBlob].AsBlob();
  out.dostore = row[kDoStore].is_null() ? "" : row[kDoStore].AsText();
  return out;
}

Result<std::vector<int64_t>> VideoStore::DeleteVideo(int64_t v_id) {
  VR_ASSIGN_OR_RETURN(std::vector<int64_t> frame_ids,
                      KeyFrameIdsOfVideo(v_id));
  std::vector<Database::RowKey> keys;
  keys.reserve(frame_ids.size() + 1);
  for (int64_t i_id : frame_ids) keys.emplace_back(kKeyFrameTable, i_id);
  keys.emplace_back(kVideoTable, v_id);
  VR_RETURN_NOT_OK(db_->DeleteBatch(keys));
  return frame_ids;
}

Result<std::vector<VideoRecord>> VideoStore::ListVideos() const {
  VR_RETURN_NOT_OK(RequireHealthy(videos_, kVideoTable));
  std::vector<VideoRecord> out;
  VR_RETURN_NOT_OK(videos_->Scan(
      [&](const Row& row) {
        VideoRecord rec;
        rec.v_id = row[kVIdCol].AsInt64();
        rec.v_name = row[kVName].is_null() ? "" : row[kVName].AsText();
        rec.dostore = row[kDoStore].is_null() ? "" : row[kDoStore].AsText();
        out.push_back(std::move(rec));
        return true;
      },
      /*resolve_blobs=*/false));
  std::sort(out.begin(), out.end(),
            [](const VideoRecord& a, const VideoRecord& b) {
              return a.v_id < b.v_id;
            });
  return out;
}

Result<std::vector<VideoRecord>> VideoStore::FindVideosByName(
    const std::string& substring) const {
  VR_RETURN_NOT_OK(RequireHealthy(videos_, kVideoTable));
  SelectQuery query;
  query.columns = {"V_ID", "V_NAME", "DOSTORE"};
  query.where = Compare("V_NAME", CompareOp::kContains, Value(substring));
  query.order_by = "V_ID";
  VR_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecuteSelect(*videos_, query));
  std::vector<VideoRecord> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    VideoRecord rec;
    rec.v_id = row[0].AsInt64();
    rec.v_name = row[1].is_null() ? "" : row[1].AsText();
    rec.dostore = row[2].is_null() ? "" : row[2].AsText();
    out.push_back(std::move(rec));
  }
  return out;
}

Result<Row> VideoStore::KeyFrameToRow(const KeyFrameRecord& record) {
  if (record.min < 0 || record.min > 255 || record.max < 0 ||
      record.max > 255) {
    return Status::InvalidArgument("MIN/MAX must lie in [0, 255]");
  }
  Row row;
  row.reserve(kFeatureBase + kNumFeatureKinds);
  row.push_back(Value(record.i_id));
  row.push_back(Value(record.i_name));
  row.push_back(Value::Blob(record.image));
  row.push_back(Value(record.min));
  row.push_back(Value(record.max));
  row.push_back(Value(record.major_regions));
  row.push_back(Value(record.v_id));
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    auto it = record.features.find(static_cast<FeatureKind>(i));
    if (it == record.features.end()) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value(it->second.ToString()));
    }
  }
  return row;
}

Result<int64_t> VideoStore::PutKeyFrame(const KeyFrameRecord& record) {
  VR_ASSIGN_OR_RETURN(Row row, KeyFrameToRow(record));
  VR_ASSIGN_OR_RETURN(int64_t pk, db_->Insert(kKeyFrameTable, std::move(row)));
  next_key_frame_id_ = std::max(next_key_frame_id_, pk + 1);
  return pk;
}

Status VideoStore::PutKeyFrames(const std::vector<KeyFrameRecord>& records) {
  return PutBatch(nullptr, records);
}

Status VideoStore::PutVideoWithKeyFrames(
    const VideoRecord& video, const std::vector<KeyFrameRecord>& key_frames) {
  return PutBatch(&video, key_frames);
}

Status VideoStore::PutBatch(const VideoRecord* video,
                            const std::vector<KeyFrameRecord>& key_frames) {
  std::vector<Database::TableRow> rows;
  rows.reserve(key_frames.size() + 1);
  // The video row goes first: a journal torn inside the batch then
  // leaves a video whose remaining key frames RemoveVideo can reach.
  if (video != nullptr) rows.emplace_back(kVideoTable, VideoToRow(*video));
  for (const KeyFrameRecord& record : key_frames) {
    VR_ASSIGN_OR_RETURN(Row row, KeyFrameToRow(record));
    rows.emplace_back(kKeyFrameTable, std::move(row));
  }
  VR_RETURN_NOT_OK(db_->InsertBatch(rows));
  if (video != nullptr) {
    next_video_id_ = std::max(next_video_id_, video->v_id + 1);
  }
  for (const KeyFrameRecord& record : key_frames) {
    next_key_frame_id_ = std::max(next_key_frame_id_, record.i_id + 1);
  }
  return Status::OK();
}

Result<KeyFrameRecord> VideoStore::RowToKeyFrame(const Row& row) const {
  KeyFrameRecord out;
  out.i_id = row[kIId].AsInt64();
  out.i_name = row[kIName].is_null() ? "" : row[kIName].AsText();
  if (row[kImage].is_blob()) out.image = row[kImage].AsBlob();
  out.min = row[kMin].AsInt64();
  out.max = row[kMax].AsInt64();
  out.major_regions =
      row[kMajorRegions].is_null() ? 0 : row[kMajorRegions].AsInt64();
  out.v_id = row[kVId].AsInt64();
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    const Value& cell = row[kFeatureBase + static_cast<size_t>(i)];
    if (cell.is_null()) continue;
    VR_ASSIGN_OR_RETURN(FeatureVector fv,
                        FeatureVector::FromString(cell.AsText()));
    out.features.emplace(static_cast<FeatureKind>(i), std::move(fv));
  }
  return out;
}

Result<KeyFrameRecord> VideoStore::GetKeyFrame(int64_t i_id) const {
  VR_RETURN_NOT_OK(RequireHealthy(key_frames_, kKeyFrameTable));
  VR_ASSIGN_OR_RETURN(Row row, key_frames_->Get(i_id));
  return RowToKeyFrame(row);
}

Status VideoStore::DeleteKeyFrame(int64_t i_id) {
  return db_->Delete(kKeyFrameTable, i_id);
}

Result<std::vector<int64_t>> VideoStore::KeyFrameIdsOfVideo(
    int64_t v_id) const {
  VR_RETURN_NOT_OK(RequireHealthy(key_frames_, kKeyFrameTable));
  std::vector<int64_t> out;
  VR_RETURN_NOT_OK(key_frames_->ScanIndexRange(
      kVideoIdIndex, v_id, v_id, [&](int64_t pk) {
        out.push_back(pk);
        return true;
      }));
  return out;
}

Status VideoStore::ScanKeyFrames(
    const std::function<bool(const KeyFrameRecord&)>& cb) const {
  VR_RETURN_NOT_OK(RequireHealthy(key_frames_, kKeyFrameTable));
  Status inner = Status::OK();
  VR_RETURN_NOT_OK(key_frames_->Scan(
      [&](const Row& row) {
        Result<KeyFrameRecord> record = RowToKeyFrame(row);
        if (!record.ok()) {
          inner = record.status();
          return false;
        }
        return cb(record.value());
      },
      /*resolve_blobs=*/false));
  return inner;
}

Result<uint64_t> VideoStore::VideoCount() const {
  VR_RETURN_NOT_OK(RequireHealthy(videos_, kVideoTable));
  return videos_->Count();
}

Result<uint64_t> VideoStore::KeyFrameCount() const {
  VR_RETURN_NOT_OK(RequireHealthy(key_frames_, kKeyFrameTable));
  return key_frames_->Count();
}

}  // namespace vr
