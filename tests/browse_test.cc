#include "retrieval/browse.h"

#include <gtest/gtest.h>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "imaging/ppm.h"
#include "video/synth/generator.h"

namespace vr {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  RemoveDirRecursive(dir);
  return dir;
}

TEST(ContactSheetTest, LayoutDimensions) {
  std::vector<Image> thumbs(7, Image(30, 20, 3));
  ContactSheetOptions options;
  options.columns = 3;
  options.thumb_width = 40;
  options.thumb_height = 30;
  options.padding = 5;
  const Image sheet = RenderContactSheet(thumbs, options).value();
  // 3 columns x 3 rows (7 thumbs).
  EXPECT_EQ(sheet.width(), 5 + 3 * (40 + 5));
  EXPECT_EQ(sheet.height(), 5 + 3 * (30 + 5));
}

TEST(ContactSheetTest, FewerThumbsThanColumns) {
  std::vector<Image> thumbs(2, Image(10, 10, 3));
  ContactSheetOptions options;
  options.columns = 5;
  const Image sheet = RenderContactSheet(thumbs, options).value();
  // Grid shrinks to the actual count.
  EXPECT_EQ(sheet.width(),
            options.padding + 2 * (options.thumb_width + options.padding));
}

TEST(ContactSheetTest, ThumbnailContentPlaced) {
  Image red(10, 10, 3);
  red.Fill({250, 10, 10});
  Image blue(10, 10, 3);
  blue.Fill({10, 10, 250});
  ContactSheetOptions options;
  options.columns = 2;
  options.thumb_width = 20;
  options.thumb_height = 20;
  options.padding = 4;
  const Image sheet = RenderContactSheet({red, blue}, options).value();
  // Center of the first cell is red, second is blue.
  const Rgb first = sheet.PixelRgb(4 + 10, 4 + 10);
  const Rgb second = sheet.PixelRgb(4 + 24 + 10, 4 + 10);
  EXPECT_GT(first.r, 200);
  EXPECT_GT(second.b, 200);
  // Background outside cells.
  const Rgb corner = sheet.PixelRgb(0, 0);
  EXPECT_EQ(corner, options.background);
}

TEST(ContactSheetTest, RejectsDegenerateInput) {
  EXPECT_FALSE(RenderContactSheet({}).ok());
  ContactSheetOptions bad;
  bad.columns = 0;
  EXPECT_FALSE(RenderContactSheet({Image(4, 4, 3)}, bad).ok());
}

std::vector<Image> CartoonFrames() {
  SyntheticVideoSpec spec;
  spec.category = VideoCategory::kCartoon;
  spec.width = 64;
  spec.height = 48;
  spec.num_scenes = 3;
  spec.frames_per_scene = 5;
  spec.seed = 8;
  return GenerateVideoFrames(spec).value();
}

EngineOptions SheetOptions() {
  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram};
  options.store_video_blob = false;
  return options;
}

TEST(ResultSheetTest, EndToEndWithStoredKeyFrames) {
  auto engine =
      RetrievalEngine::Open(FreshDir("sheet_e2e"), SheetOptions()).value();
  const auto frames = CartoonFrames();
  ASSERT_TRUE(engine->IngestFrames(frames, "toon").ok());

  // Stored images are the key frames' PNM bytes, pixel for pixel.
  const auto ids = engine->store()->KeyFrameIdsOfVideo(1).value();
  ASSERT_FALSE(ids.empty());
  const KeyFrameRecord record =
      engine->store()->GetKeyFrame(ids[0]).value();
  const Image decoded =
      DecodePnm(std::string(record.image.begin(), record.image.end()))
          .value();
  EXPECT_EQ(decoded.width(), 64);
  EXPECT_EQ(decoded, frames[0]);

  const auto results = engine->QueryByImage(frames[0], 4).value();
  ASSERT_FALSE(results.empty());
  Result<Image> sheet = RenderResultSheet(engine.get(), results);
  ASSERT_TRUE(sheet.ok()) << sheet.status();
  EXPECT_GT(sheet->width(), 100);
  EXPECT_EQ(sheet->channels(), 3);
}

TEST(ResultSheetTest, NonPnmKeyFrameFailsWithStatus) {
  // Older builds could store key frames in a lossy "VJF1" container;
  // such a row is now an unreadable image, reported, never rendered.
  auto engine =
      RetrievalEngine::Open(FreshDir("sheet_vjf_row"), SheetOptions())
          .value();
  const auto frames = CartoonFrames();
  PreparedVideo video;
  video.name = "old";
  KeyFrame frame;
  frame.image = frames[0];
  PreparedKeyFrame key = engine->PrepareKeyFrame("old", frame).value();
  // Magic, u16 width, u16 height, u8 channels, u8 quality, then a
  // payload the PNM decoder never reaches.
  key.image = {'V', 'J', 'F', '1', 64, 0, 48, 0, 3, 80, 0, 0, 0, 0};
  video.keys.push_back(std::move(key));
  ASSERT_TRUE(engine->CommitPrepared(std::move(video)).ok());

  const auto results = engine->QueryByImage(frames[0], 4).value();
  ASSERT_EQ(results.size(), 1u);
  Result<Image> sheet = RenderResultSheet(engine.get(), results);
  ASSERT_FALSE(sheet.ok());
  EXPECT_TRUE(sheet.status().IsCorruption()) << sheet.status();
}

}  // namespace
}  // namespace vr
