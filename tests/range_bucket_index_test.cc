#include "index/range_bucket_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace vr {
namespace {

Image SolidGray(uint8_t level) {
  Image img(30, 30, 1);
  img.Fill({level, level, level});
  return img;
}

TEST(RangeBucketIndexTest, InsertAndExactLookup) {
  RangeBucketIndex index;
  index.Insert(1, ComputeGrayHistogram(SolidGray(10)));
  index.Insert(2, ComputeGrayHistogram(SolidGray(12)));
  index.Insert(3, ComputeGrayHistogram(SolidGray(250)));
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.bucket_count(), 2u);

  const std::vector<int64_t> dark =
      index.Lookup(SolidGray(11), RangeLookupMode::kExact);
  EXPECT_EQ(dark, (std::vector<int64_t>{1, 2}));
  const std::vector<int64_t> bright =
      index.Lookup(SolidGray(251), RangeLookupMode::kExact);
  EXPECT_EQ(bright, (std::vector<int64_t>{3}));
}

TEST(RangeBucketIndexTest, LineageIncludesAncestors) {
  RangeBucketIndex index;
  // One frame grouped at a shallow bucket, one at a deep bucket on the
  // same branch.
  index.InsertAt(1, GrayRange{0, 127, 1});
  index.InsertAt(2, GrayRange{0, 31, 3});
  index.InsertAt(3, GrayRange{128, 255, 1});

  const std::vector<int64_t> hits =
      index.Lookup(GrayRange{0, 63, 2}, RangeLookupMode::kLineage);
  EXPECT_EQ(hits, (std::vector<int64_t>{1, 2}));
}

TEST(RangeBucketIndexTest, OverlapModeSpansSiblings) {
  // The root's lineage is every bucket, so it spans both children.
  RangeBucketIndex index;
  index.InsertAt(1, GrayRange{0, 127, 1});
  index.InsertAt(2, GrayRange{128, 255, 1});
  const std::vector<int64_t> hits =
      index.Lookup(GrayRange{0, 255, 0}, RangeLookupMode::kLineage);
  EXPECT_EQ(hits, (std::vector<int64_t>{1, 2}));
}

// 256 gray levels halve eight times down to width 1; a deeper
// max_depth re-emits width-1 intervals and adds no new one.
constexpr int kDeepestLevel = 8;

TEST(RangeBucketIndexTest, DyadicBucketsOverlapOnlyWhenNested) {
  // Every bucket FindRange can emit is a dyadic interval, so two of
  // them share a gray level exactly when one contains the other: a
  // lineage lookup is the overlap filter.
  const std::vector<GrayRange> tree = AllTreeRanges(kDeepestLevel);
  ASSERT_EQ(tree.size(), 511u);
  RangeBucketIndex index;
  for (size_t i = 0; i < tree.size(); ++i) {
    index.InsertAt(static_cast<int64_t>(i), tree[i]);
  }
  for (const GrayRange& a : tree) {
    std::vector<int64_t> overlapping;
    for (size_t i = 0; i < tree.size(); ++i) {
      const GrayRange& b = tree[i];
      ASSERT_EQ(a.Overlaps(b), a.Contains(b) || b.Contains(a))
          << a.ToString() << " vs " << b.ToString();
      if (a.Overlaps(b)) overlapping.push_back(static_cast<int64_t>(i));
    }
    EXPECT_EQ(index.Lookup(a, RangeLookupMode::kLineage), overlapping)
        << a.ToString();
  }

  // FindRange emits only those intervals, whatever the options.
  Rng rng(33);
  for (int trial = 0; trial < 400; ++trial) {
    GrayHistogram hist;
    const int clusters = static_cast<int>(rng.UniformInt(1, 3));
    for (int c = 0; c < clusters; ++c) {
      const int center = static_cast<int>(rng.UniformInt(0, 255));
      const int spread = static_cast<int>(rng.UniformInt(0, 40));
      const uint64_t mass = static_cast<uint64_t>(rng.UniformInt(1, 5000));
      for (int g = std::max(0, center - spread);
           g <= std::min(255, center + spread); ++g) {
        hist.bins[static_cast<size_t>(g)] += mass;
      }
    }
    RangeFinderOptions options;
    options.max_depth = static_cast<int>(rng.UniformInt(0, kDeepestLevel + 2));
    options.level1_threshold_pct = rng.UniformDouble(30.0, 80.0);
    options.lower_threshold_pct = rng.UniformDouble(30.0, 80.0);
    const GrayRange r = FindRange(hist, options);
    const int width = 256 >> std::min(r.depth, kDeepestLevel);
    EXPECT_EQ(r.max - r.min + 1, width) << "trial " << trial;
    EXPECT_EQ(r.min % width, 0) << "trial " << trial;
    EXPECT_LE(r.depth, options.max_depth) << "trial " << trial;
  }
}

TEST(RangeBucketIndexTest, EraseRemovesAndPrunesBucket) {
  RangeBucketIndex index;
  index.InsertAt(7, GrayRange{0, 31, 3});
  EXPECT_TRUE(index.Erase(7, GrayRange{0, 31, 3}));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.bucket_count(), 0u);
  EXPECT_FALSE(index.Erase(7, GrayRange{0, 31, 3}));
}

TEST(RangeBucketIndexTest, PruningBeatsFullScan) {
  RangeBucketIndex index;
  // 100 dark frames, 100 bright frames.
  for (int i = 0; i < 100; ++i) {
    index.InsertAt(i, GrayRange{0, 31, 3});
    index.InsertAt(100 + i, GrayRange{224, 255, 3});
  }
  const std::vector<int64_t> hits =
      index.Lookup(GrayRange{0, 31, 3}, RangeLookupMode::kLineage);
  EXPECT_EQ(hits.size(), 100u);  // half the corpus pruned away
}

TEST(RangeBucketIndexTest, LookupOnEmptyIndex) {
  RangeBucketIndex index;
  EXPECT_TRUE(
      index.Lookup(GrayRange{0, 255, 0}, RangeLookupMode::kLineage).empty());
}

}  // namespace
}  // namespace vr
