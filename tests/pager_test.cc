#include "storage/pager.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "util/fault_injection_env.h"
#include "util/hash.h"

namespace vr {
namespace {

/// Meta-page offset of the format version (docs/FORMAT.md §1.2).
constexpr size_t kMetaVersionOffset = 32;

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<uint8_t> bytes;
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string TempPath(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(PagerTest, CreateAndReopen) {
  const std::string path = TempPath("pager_create.vpg");
  {
    auto pager = Pager::Open(path, true).value();
    EXPECT_EQ(pager->page_count(), 1u);  // meta page
    pager->set_user_root(42);
    pager->set_user_counter(1234567);
    ASSERT_TRUE(pager->Flush().ok());
  }
  {
    auto pager = Pager::Open(path, false).value();
    EXPECT_EQ(pager->user_root(), 42u);
    EXPECT_EQ(pager->user_counter(), 1234567u);
  }
}

TEST(PagerTest, MissingFileWithoutCreateFails) {
  EXPECT_TRUE(
      Pager::Open(TempPath("does_not_exist.vpg"), false).status().IsIOError());
}

TEST(PagerTest, AllocateWriteReadBack) {
  const std::string path = TempPath("pager_rw.vpg");
  uint32_t page_id = 0;
  {
    auto pager = Pager::Open(path, true).value();
    page_id = pager->Allocate(PageType::kSlotted).value();
    auto page = pager->Fetch(page_id).value();
    page->WriteAt<uint64_t>(64, 0xFEEDFACEULL);
    ASSERT_TRUE(pager->MarkDirty(page_id).ok());
    ASSERT_TRUE(pager->Flush().ok());
  }
  {
    auto pager = Pager::Open(path, false).value();
    auto page = pager->Fetch(page_id).value();
    EXPECT_EQ(page->type(), PageType::kSlotted);
    EXPECT_EQ(page->ReadAt<uint64_t>(64), 0xFEEDFACEULL);
  }
}

TEST(PagerTest, FetchBeyondEndFails) {
  auto pager = Pager::Open(TempPath("pager_oob.vpg"), true).value();
  EXPECT_TRUE(pager->Fetch(99).status().IsInvalidArgument());
}

TEST(PagerTest, FreeListRecyclesPages) {
  auto pager = Pager::Open(TempPath("pager_free.vpg"), true).value();
  const uint32_t a = pager->Allocate(PageType::kBlob).value();
  const uint32_t b = pager->Allocate(PageType::kBlob).value();
  EXPECT_NE(a, b);
  const uint32_t count_before = pager->page_count();
  ASSERT_TRUE(pager->Free(a).ok());
  const uint32_t c = pager->Allocate(PageType::kSlotted).value();
  EXPECT_EQ(c, a);  // recycled
  EXPECT_EQ(pager->page_count(), count_before);  // no growth
  // Recycled page is zeroed and retyped.
  auto page = pager->Fetch(c).value();
  EXPECT_EQ(page->type(), PageType::kSlotted);
  EXPECT_EQ(page->ReadAt<uint64_t>(100), 0u);
}

TEST(PagerTest, CannotFreeMetaPage) {
  auto pager = Pager::Open(TempPath("pager_meta.vpg"), true).value();
  EXPECT_FALSE(pager->Free(0).ok());
}

TEST(PagerTest, EvictionWritesDirtyPages) {
  const std::string path = TempPath("pager_evict.vpg");
  {
    // Tiny cache forces eviction.
    auto pager = Pager::Open(path, true, /*cache_pages=*/8).value();
    std::vector<uint32_t> ids;
    for (int i = 0; i < 64; ++i) {
      const uint32_t id = pager->Allocate(PageType::kSlotted).value();
      auto page = pager->Fetch(id).value();
      page->WriteAt<uint32_t>(32, static_cast<uint32_t>(i));
      ASSERT_TRUE(pager->MarkDirty(id).ok());
      ids.push_back(id);
    }
    ASSERT_TRUE(pager->Flush().ok());
    // Everything readable, even evicted pages.
    for (int i = 0; i < 64; ++i) {
      auto page = pager->Fetch(ids[static_cast<size_t>(i)]).value();
      EXPECT_EQ(page->ReadAt<uint32_t>(32), static_cast<uint32_t>(i));
    }
    EXPECT_GT(pager->GetStats().misses, 0u);
  }
  {
    auto pager = Pager::Open(path, false).value();
    auto page = pager->Fetch(1).value();
    EXPECT_EQ(page->ReadAt<uint32_t>(32), 0u);
  }
}

TEST(PagerTest, EachNewPageIsWrittenOnce) {
  // Four times the cache, so most pages leave through eviction and the
  // rest through the flush; none is written before its contents exist.
  constexpr size_t kCachePages = 8;
  constexpr uint32_t kPages = 4 * kCachePages;
  FaultInjectionEnv env;
  const std::string path = "pager_once.vpg";
  {
    auto pager = Pager::Open(path, true, kCachePages, &env).value();
    const uint64_t writes_before = env.write_count();
    for (uint32_t i = 0; i < kPages; ++i) {
      const uint32_t id = pager->Allocate(PageType::kSlotted).value();
      auto page = pager->Fetch(id).value();
      page->WriteAt<uint32_t>(32, 1000 + i);
      ASSERT_TRUE(pager->MarkDirty(id).ok());
    }
    ASSERT_TRUE(pager->Flush().ok());
    // One write per page, plus the meta page.
    EXPECT_EQ(env.write_count() - writes_before, kPages + 1u);
  }
  auto pager = Pager::Open(path, false, kCachePages, &env).value();
  EXPECT_EQ(pager->page_count(), kPages + 1u);
  ASSERT_TRUE(pager->VerifyAllPages().ok());
  for (uint32_t i = 0; i < kPages; ++i) {
    EXPECT_EQ(pager->Fetch(i + 1).value()->ReadAt<uint32_t>(32), 1000 + i);
  }
}

TEST(PagerTest, PinnedPagesSurviveEviction) {
  auto pager = Pager::Open(TempPath("pager_pin.vpg"), true, 8).value();
  const uint32_t id = pager->Allocate(PageType::kSlotted).value();
  auto pinned = pager->Fetch(id).value();
  pinned->WriteAt<uint32_t>(16, 777);
  ASSERT_TRUE(pager->MarkDirty(id).ok());
  // Churn the cache.
  for (int i = 0; i < 32; ++i) {
    (void)pager->Allocate(PageType::kBlob).value();
  }
  // Our pinned pointer still valid and correct.
  EXPECT_EQ(pinned->ReadAt<uint32_t>(16), 777u);
}

TEST(PagerTest, FreeListPersistsAcrossReopen) {
  const std::string path = TempPath("pager_freelist.vpg");
  uint32_t freed = 0;
  uint32_t count_before = 0;
  {
    auto pager = Pager::Open(path, true).value();
    (void)pager->Allocate(PageType::kBlob).value();
    freed = pager->Allocate(PageType::kBlob).value();
    (void)pager->Allocate(PageType::kBlob).value();
    ASSERT_TRUE(pager->Free(freed).ok());
    count_before = pager->page_count();
    ASSERT_TRUE(pager->Flush().ok());
  }
  {
    auto pager = Pager::Open(path, false).value();
    // The freed page is recycled instead of growing the file.
    EXPECT_EQ(pager->Allocate(PageType::kSlotted).value(), freed);
    EXPECT_EQ(pager->page_count(), count_before);
  }
}

TEST(PagerTest, RejectsCorruptMeta) {
  const std::string path = TempPath("pager_bad.vpg");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::vector<uint8_t> garbage(kPageSize, 0x5A);
  std::fwrite(garbage.data(), 1, garbage.size(), f);
  std::fclose(f);
  EXPECT_TRUE(Pager::Open(path, false).status().IsCorruption());
}

TEST(PagerTest, NewFilesUseChecksummedFormat) {
  const std::string path = TempPath("pager_v2.vpg");
  {
    auto pager = Pager::Open(path, true).value();
    ASSERT_TRUE(pager->VerifyAllPages().ok());
  }
  // One slot: the meta page stamped with the current version, then its
  // FNV-1a trailer.
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), Pager::kSlotSize);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kMetaVersionOffset, sizeof(version));
  EXPECT_EQ(version, kPagerFormatCurrent);
  uint64_t trailer = 0;
  std::memcpy(&trailer, bytes.data() + kPageSize, sizeof(trailer));
  EXPECT_EQ(trailer, Fnv1a64(bytes.data(), kPageSize));
}

TEST(PagerTest, MetaVersionBitFlipIsCorruption) {
  // Bit 1 of meta byte 32 turns version 2 into 0. The flip must not
  // switch the file into some checksum-free reading mode.
  const std::string path = TempPath("pager_flip.vpg");
  {
    auto pager = Pager::Open(path, true).value();
    const uint32_t id = pager->Allocate(PageType::kSlotted).value();
    pager->Fetch(id).value()->WriteAt<uint64_t>(64, 0xABCDEF01ULL);
    ASSERT_TRUE(pager->MarkDirty(id).ok());
    ASSERT_TRUE(pager->Flush().ok());
  }
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[kMetaVersionOffset] ^= 0x02;
  WriteFileBytes(path, bytes);
  Result<std::unique_ptr<Pager>> reopened = Pager::Open(path, false);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

TEST(PagerTest, RejectsEveryFormatVersionButCurrent) {
  // A version-0 file as the pre-checksum format wrote it: bare
  // 8192-byte slots, no version field, no trailers.
  const std::string path = TempPath("pager_v0.vpg");
  Page meta;
  meta.set_type(PageType::kMeta);
  meta.WriteAt<uint32_t>(8, 0x56504746);  // "FGPV"
  meta.WriteAt<uint32_t>(12, 2);          // page_count
  meta.WriteAt<uint32_t>(20, 1);          // user_root
  Page data;
  data.set_type(PageType::kSlotted);
  std::vector<uint8_t> bare(meta.data(), meta.data() + kPageSize);
  bare.insert(bare.end(), data.data(), data.data() + kPageSize);
  WriteFileBytes(path, bare);
  EXPECT_TRUE(Pager::Open(path, false).status().IsCorruption());

  // Correctly checksummed slots whose meta names another version.
  for (uint32_t version : {0u, 1u, kPagerFormatCurrent + 1}) {
    meta.WriteAt<uint32_t>(kMetaVersionOffset, version);
    std::vector<uint8_t> slotted;
    for (const Page* page : {&meta, &data}) {
      slotted.insert(slotted.end(), page->data(), page->data() + kPageSize);
      const uint64_t sum = Fnv1a64(page->data(), kPageSize);
      const auto* sum_bytes = reinterpret_cast<const uint8_t*>(&sum);
      slotted.insert(slotted.end(), sum_bytes, sum_bytes + sizeof(sum));
    }
    WriteFileBytes(path, slotted);
    Result<std::unique_ptr<Pager>> pager = Pager::Open(path, false);
    ASSERT_FALSE(pager.ok()) << "version " << version;
    EXPECT_TRUE(pager.status().IsCorruption()) << pager.status();
    EXPECT_NE(pager.status().message().find("unsupported page-file format"),
              std::string::npos)
        << pager.status();
  }
}

TEST(PagerTest, MarkDirtyOnUnknownPageFails) {
  auto pager = Pager::Open(TempPath("pager_dirty.vpg"), true).value();
  EXPECT_TRUE(pager->MarkDirty(77).IsNotFound());
}

TEST(PagerTest, CacheHitsTracked) {
  auto pager = Pager::Open(TempPath("pager_stats.vpg"), true).value();
  const uint32_t id = pager->Allocate(PageType::kSlotted).value();
  (void)pager->Fetch(id).value();
  const uint64_t hits_before = pager->GetStats().hits;
  (void)pager->Fetch(id).value();
  EXPECT_EQ(pager->GetStats().hits, hits_before + 1);
}

}  // namespace
}  // namespace vr
