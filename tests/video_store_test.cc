#include "storage/video_store.h"

#include <gtest/gtest.h>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "util/rng.h"

namespace vr {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  RemoveDirRecursive(dir);
  return dir;
}

VideoRecord MakeVideo(int64_t v_id, const std::string& name, size_t bytes) {
  VideoRecord rec;
  rec.v_id = v_id;
  rec.v_name = name;
  rec.video.assign(bytes, static_cast<uint8_t>(v_id));
  rec.stream = {'1', ' ', '2'};
  rec.dostore = "2026-07-04";
  return rec;
}

KeyFrameRecord MakeKeyFrame(int64_t i_id, int64_t v_id, int64_t min,
                            int64_t max) {
  KeyFrameRecord rec;
  rec.i_id = i_id;
  rec.i_name = "frame";
  rec.image = {0x50, 0x35};  // tiny stub blob
  rec.min = min;
  rec.max = max;
  rec.major_regions = 2;
  rec.v_id = v_id;
  rec.features.emplace(FeatureKind::kGlcm,
                       FeatureVector("glcm", {1.0, 2.0, 3.0}));
  rec.features.emplace(FeatureKind::kColorHistogram,
                       FeatureVector("histogram", {4.0, 5.0}));
  return rec;
}

TEST(VideoStoreTest, VideoRoundTrip) {
  auto store = VideoStore::Open(FreshDir("vs_video")).value();
  ASSERT_TRUE(store->PutVideo(MakeVideo(1, "clip", 50000)).ok());
  const VideoRecord back = store->GetVideo(1).value();
  EXPECT_EQ(back.v_name, "clip");
  EXPECT_EQ(back.video.size(), 50000u);
  EXPECT_EQ(back.video[0], 1);
  EXPECT_EQ(back.stream, (std::vector<uint8_t>{'1', ' ', '2'}));
  EXPECT_EQ(back.dostore, "2026-07-04");
  EXPECT_EQ(store->VideoCount().value(), 1u);
}

TEST(VideoStoreTest, KeyFrameRoundTripWithFeatures) {
  auto store = VideoStore::Open(FreshDir("vs_kf")).value();
  ASSERT_TRUE(store->PutKeyFrame(MakeKeyFrame(10, 1, 0, 127)).ok());
  const KeyFrameRecord back = store->GetKeyFrame(10).value();
  EXPECT_EQ(back.v_id, 1);
  EXPECT_EQ(back.min, 0);
  EXPECT_EQ(back.max, 127);
  EXPECT_EQ(back.major_regions, 2);
  ASSERT_EQ(back.features.size(), 2u);
  EXPECT_EQ(back.features.at(FeatureKind::kGlcm).values(),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(back.features.at(FeatureKind::kColorHistogram).type(),
            "histogram");
}

TEST(VideoStoreTest, VideoIdIndexLookup) {
  auto store = VideoStore::Open(FreshDir("vs_vid")).value();
  for (int64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(store->PutKeyFrame(MakeKeyFrame(i, i % 2 + 1, 0, 255)).ok());
  }
  const auto of_video1 = store->KeyFrameIdsOfVideo(1).value();
  EXPECT_EQ(of_video1, (std::vector<int64_t>{2, 4, 6}));
}

TEST(VideoStoreTest, DeleteVideoCascades) {
  auto store = VideoStore::Open(FreshDir("vs_cascade")).value();
  ASSERT_TRUE(store->PutVideo(MakeVideo(1, "a", 100)).ok());
  ASSERT_TRUE(store->PutKeyFrame(MakeKeyFrame(1, 1, 0, 31)).ok());
  ASSERT_TRUE(store->PutKeyFrame(MakeKeyFrame(2, 1, 0, 31)).ok());
  ASSERT_TRUE(store->DeleteVideo(1).ok());
  EXPECT_TRUE(store->GetVideo(1).status().IsNotFound());
  EXPECT_EQ(store->KeyFrameCount().value(), 0u);
  EXPECT_TRUE(store->KeyFrameIdsOfVideo(1).value().empty());
}

TEST(VideoStoreTest, ListVideosSkipsBlobs) {
  auto store = VideoStore::Open(FreshDir("vs_list")).value();
  ASSERT_TRUE(store->PutVideo(MakeVideo(2, "b", 80000)).ok());
  ASSERT_TRUE(store->PutVideo(MakeVideo(1, "a", 80000)).ok());
  const auto videos = store->ListVideos().value();
  ASSERT_EQ(videos.size(), 2u);
  EXPECT_EQ(videos[0].v_id, 1);
  EXPECT_EQ(videos[1].v_id, 2);
  EXPECT_TRUE(videos[0].video.empty());  // not materialized
}

TEST(VideoStoreTest, MetadataSearchByName) {
  auto store = VideoStore::Open(FreshDir("vs_meta")).value();
  ASSERT_TRUE(store->PutVideo(MakeVideo(1, "holiday_beach", 100)).ok());
  ASSERT_TRUE(store->PutVideo(MakeVideo(2, "beach_volleyball", 100)).ok());
  ASSERT_TRUE(store->PutVideo(MakeVideo(3, "lecture_01", 100)).ok());
  const auto beach = store->FindVideosByName("beach").value();
  ASSERT_EQ(beach.size(), 2u);
  EXPECT_EQ(beach[0].v_id, 1);
  EXPECT_EQ(beach[1].v_id, 2);
  EXPECT_TRUE(beach[0].video.empty());  // metadata only
  EXPECT_TRUE(store->FindVideosByName("nosuch").value().empty());
  EXPECT_EQ(store->FindVideosByName("").value().size(), 3u);
}

TEST(VideoStoreTest, IdCountersResumeAfterReopen) {
  const std::string dir = FreshDir("vs_ids");
  {
    auto store = VideoStore::Open(dir).value();
    EXPECT_EQ(store->NextVideoId(), 1);
    ASSERT_TRUE(store->PutVideo(MakeVideo(1, "a", 10)).ok());
    ASSERT_TRUE(store->PutKeyFrame(MakeKeyFrame(7, 1, 0, 255)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  {
    auto store = VideoStore::Open(dir).value();
    EXPECT_EQ(store->NextVideoId(), 2);
    EXPECT_EQ(store->NextKeyFrameId(), 8);
  }
}

TEST(VideoStoreTest, RejectsOutOfRangeMinMax) {
  auto store = VideoStore::Open(FreshDir("vs_bad")).value();
  EXPECT_FALSE(store->PutKeyFrame(MakeKeyFrame(1, 1, -1, 255)).ok());
  EXPECT_FALSE(store->PutKeyFrame(MakeKeyFrame(1, 1, 0, 300)).ok());
}

TEST(VideoStoreTest, ScanKeyFramesVisitsAll) {
  auto store = VideoStore::Open(FreshDir("vs_scan")).value();
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store->PutKeyFrame(MakeKeyFrame(i, 1, 0, 255)).ok());
  }
  int count = 0;
  ASSERT_TRUE(store->ScanKeyFrames([&](const KeyFrameRecord& rec) {
                    EXPECT_GT(rec.i_id, 0);
                    EXPECT_FALSE(rec.features.empty());
                    ++count;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(count, 5);
}

TEST(VideoStoreTest, PersistsAcrossReopen) {
  const std::string dir = FreshDir("vs_persist");
  {
    auto store = VideoStore::Open(dir).value();
    ASSERT_TRUE(store->PutVideo(MakeVideo(1, "keepme", 30000)).ok());
    ASSERT_TRUE(store->PutKeyFrame(MakeKeyFrame(1, 1, 32, 63)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  {
    auto store = VideoStore::Open(dir).value();
    EXPECT_EQ(store->GetVideo(1).value().v_name, "keepme");
    EXPECT_EQ(store->GetKeyFrame(1).value().min, 32);
    EXPECT_EQ(store->KeyFrameIdsOfVideo(1).value().size(), 1u);
  }
}

/// The KEY_FRAMES columns a fresh store creates (in its own directory,
/// so tests running in parallel do not share it).
std::vector<Column> KeyFrameColumns(const char* name) {
  auto store = VideoStore::Open(FreshDir(name)).value();
  return store->database()
      ->GetTable(VideoStore::kKeyFrameTable)
      .value()
      ->schema()
      .columns();
}

/// Creates KEY_FRAMES with \p columns in a fresh database directory and
/// returns what VideoStore::Open makes of it.
Status OpenOverKeyFrames(const char* name, std::vector<Column> columns) {
  const std::string dir = FreshDir(name);
  {
    DatabaseOptions options;
    options.create_if_missing = true;
    auto db = Database::Open(dir, options).value();
    const Schema schema = Schema::Create(std::move(columns), "I_ID").value();
    if (!db->CreateTable(VideoStore::kKeyFrameTable, schema).ok()) {
      return Status::Internal("setup failed");
    }
    if (!db->Close().ok()) return Status::Internal("setup failed");
  }
  return VideoStore::Open(dir).status();
}

TEST(VideoStoreTest, RejectsKeyFramesWithARenamedFeatureColumn) {
  std::vector<Column> columns = KeyFrameColumns("vs_renamed_layout");
  ASSERT_EQ(columns[7].name, "FEAT_histogram");
  columns[7].name = "FEAT_renamed";
  const Status st = OpenOverKeyFrames("vs_renamed", columns);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("KEY_FRAMES"), std::string::npos) << st;
  EXPECT_NE(st.message().find("FEAT_renamed"), std::string::npos) << st;
}

TEST(VideoStoreTest, RefusesAStoreWrittenWithGaborV1) {
  // A store written with the first Gabor definition has the same layout
  // with FEAT_gabor at position 9; its values must never be ranked
  // against the second definition's.
  std::vector<Column> columns = KeyFrameColumns("vs_gabor_v1_layout");
  ASSERT_EQ(columns[9].name, "FEAT_gabor2");
  columns[9].name = "FEAT_gabor";
  const Status st = OpenOverKeyFrames("vs_gabor_v1", columns);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("KEY_FRAMES"), std::string::npos) << st;
  EXPECT_NE(st.message().find("column 9 is FEAT_gabor, expected FEAT_gabor2"),
            std::string::npos)
      << st;
}

TEST(VideoStoreTest, RejectsKeyFramesWithAMissingFeatureColumn) {
  std::vector<Column> columns = KeyFrameColumns("vs_missing_layout");
  const std::string missing = columns.back().name;
  columns.pop_back();
  const Status st = OpenOverKeyFrames("vs_missing", columns);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("KEY_FRAMES"), std::string::npos) << st;
  EXPECT_NE(st.message().find(missing), std::string::npos) << st;
}

}  // namespace
}  // namespace vr
