/// Failure injection: corrupt files on disk and verify the storage
/// layers fail loudly (Corruption status) instead of returning garbage.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>

#include <random>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "storage/database.h"
#include "storage/pager.h"
#include "storage/video_store.h"

namespace vr {
namespace {

const DatabaseOptions kCreate{.create_if_missing = true};

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  RemoveDirRecursive(dir);
  return dir;
}

Schema TestSchema() {
  return Schema::Create(
             {
                 {"ID", ColumnType::kInt64, false},
                 {"NAME", ColumnType::kText, true},
             },
             "ID")
      .value();
}

/// On-disk bytes per page slot.
constexpr long kSlot = Pager::kSlotSize;

/// Overwrites \p count bytes at \p offset of \p path with 0xEE.
void CorruptFile(const std::string& path, long offset, size_t count) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, offset, SEEK_SET);
  const std::vector<uint8_t> garbage(count, 0xEE);
  std::fwrite(garbage.data(), 1, garbage.size(), f);
  std::fclose(f);
}

/// Flips one bit of the byte at \p offset.
void FlipBit(const std::string& path, long offset, int bit) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, offset, SEEK_SET);
  uint8_t byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= static_cast<uint8_t>(1u << bit);
  std::fseek(f, offset, SEEK_SET);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);
}

TEST(FailureInjectionTest, CorruptHeapMetaPageDetected) {
  const std::string dir = FreshDir("fi_meta");
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
    ASSERT_TRUE(db->Insert("t", {Value(int64_t{1}), Value("x")}).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  CorruptFile(dir + "/t.heap", 8, 8);  // smash the meta magic
  EXPECT_FALSE(Database::Open(dir, kCreate).ok());
}

TEST(FailureInjectionTest, TruncatedPageFileDetected) {
  const std::string dir = FreshDir("fi_trunc");
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          db->Insert("t", {Value(i), Value(std::string(400, 'x'))}).ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  // Chop the heap file in half: page_count in the meta now exceeds the
  // real file, so reads past the end must fail, not fabricate zeros.
  struct stat st {};
  ASSERT_EQ(stat((dir + "/t.heap").c_str(), &st), 0);
  ASSERT_EQ(truncate((dir + "/t.heap").c_str(), st.st_size / 2), 0);
  auto reopened = Database::Open(dir, kCreate);
  if (reopened.ok()) {
    // Open may succeed (the chain head is intact); the scan must not.
    Table* t = (*reopened)->GetTable("t").value();
    uint64_t n = 0;
    const Status scan = t->Scan([&](const Row&) {
      ++n;
      return true;
    });
    EXPECT_FALSE(scan.ok() && n == 50);
  }
}

TEST(FailureInjectionTest, CorruptCatalogDetected) {
  const std::string dir = FreshDir("fi_catalog");
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  std::ofstream f(dir + "/catalog.vcat", std::ios::trunc);
  f << "TABLE broken this-is-not-a-schema\n";
  f.close();
  EXPECT_FALSE(Database::Open(dir, kCreate).ok());
}

TEST(FailureInjectionTest, CorruptRowPayloadSurfacesOnRead) {
  const std::string dir = FreshDir("fi_row");
  int64_t pk = 1;
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
    ASSERT_TRUE(
        db->Insert("t", {Value(pk), Value(std::string(200, 'y'))}).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  // Page 1 is the first heap data page; records sit at its tail. Smash
  // the record area (near the end of the page's data bytes).
  CorruptFile(dir + "/t.heap", kSlot + kPageSize - 64, 32);
  // The page checksum no longer matches, so the damage must surface as
  // Corruption — at open time (the heap chain walk touches page 1) or,
  // at the latest, on the read.
  auto db = Database::Open(dir, kCreate);
  if (!db.ok()) {
    EXPECT_TRUE(db.status().IsCorruption()) << db.status();
    return;
  }
  Result<Row> row = (*db)->GetTable("t").value()->Get(pk);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsCorruption()) << row.status();
}

TEST(FailureInjectionTest, CorruptBlobChainDetected) {
  const std::string dir = FreshDir("fi_blob");
  Schema schema =
      Schema::Create(
          {
              {"ID", ColumnType::kInt64, false},
              {"DATA", ColumnType::kBlob, true},
          },
          "ID")
          .value();
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("b", schema).ok());
    ASSERT_TRUE(db->Insert("b", {Value(int64_t{1}),
                                 Value::Blob(std::vector<uint8_t>(60000, 7))})
                    .ok());
    ASSERT_TRUE(db->Close().ok());
  }
  // Smash a middle blob chain page's header (type byte + next pointer).
  CorruptFile(dir + "/b.blobs", 3 * kSlot, 16);
  auto db = Database::Open(dir, kCreate).value();
  Table* t = db->GetTable("b").value();
  Result<Row> row = t->Get(1);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsCorruption()) << row.status();
}

TEST(FailureInjectionTest, BTreeInteriorPageCorruptionDetected) {
  const std::string dir = FreshDir("fi_btree_interior");
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
    // A leaf holds ~511 entries; 600 rows force a height-2 tree whose
    // root is an interior page.
    for (int64_t i = 0; i < 600; ++i) {
      ASSERT_TRUE(db->Insert("t", {Value(i), Value("r")}).ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  uint32_t root = kInvalidPageId;
  {
    auto pager = Pager::Open(dir + "/t.pk.btree", false).value();
    root = pager->user_root();
    auto page = pager->Fetch(root).value();
    ASSERT_EQ(page->type(), PageType::kBTreeInternal);
  }
  // One flipped bit in the interior page's key area must fail every
  // point lookup that descends through it.
  FlipBit(dir + "/t.pk.btree", static_cast<long>(root) * kSlot + 100, 3);
  auto db = Database::Open(dir, kCreate).value();
  Table* t = db->GetTable("t").value();
  Result<Row> row = t->Get(42);
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsCorruption()) << row.status();
}

TEST(FailureInjectionTest, RandomSingleBitFlipsAlwaysDetected) {
  const std::string dir = FreshDir("fi_bitflip");
  {
    auto db = Database::Open(dir, kCreate).value();
    Schema schema = Schema::Create(
                        {
                            {"ID", ColumnType::kInt64, false},
                            {"NAME", ColumnType::kText, true},
                            {"DATA", ColumnType::kBlob, true},
                        },
                        "ID")
                        .value();
    ASSERT_TRUE(db->CreateTable("t", schema).ok());
    for (int64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(db->Insert("t", {Value(i), Value(std::string(100, 'n')),
                                   Value::Blob(std::vector<uint8_t>(
                                       9000, static_cast<uint8_t>(i)))})
                      .ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  std::mt19937 rng(20260806);
  for (const char* file : {"/t.heap", "/t.pk.btree", "/t.blobs"}) {
    const std::string path = dir + file;
    uint32_t page_count = 0;
    {
      auto pager = Pager::Open(path, false).value();
      page_count = pager->page_count();
      ASSERT_TRUE(pager->VerifyAllPages().ok());
    }
    ASSERT_GE(page_count, 2u) << path;
    for (int trial = 0; trial < 20; ++trial) {
      // Any bit of any non-meta slot, data bytes and checksum trailer
      // alike.
      const uint32_t page = 1 + rng() % (page_count - 1);
      const long offset =
          static_cast<long>(page) * kSlot + rng() % kSlot;
      const int bit = static_cast<int>(rng() % 8);
      FlipBit(path, offset, bit);
      auto pager = Pager::Open(path, false).value();
      const Status verify = pager->VerifyAllPages();
      EXPECT_TRUE(verify.IsCorruption())
          << path << " bit " << bit << " at " << offset << ": " << verify;
      FlipBit(path, offset, bit);  // restore for the next trial
    }
  }
}

TEST(FailureInjectionTest, DegradedOpenQuarantinesDamagedTable) {
  const std::string dir = FreshDir("fi_degraded");
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("good", TestSchema()).ok());
    ASSERT_TRUE(db->CreateTable("bad", TestSchema()).ok());
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->Insert("good", {Value(i), Value("g")}).ok());
      ASSERT_TRUE(db->Insert("bad", {Value(i), Value("b")}).ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  CorruptFile(dir + "/bad.heap", kSlot + 200, 32);

  // Paranoid open defers page verification to Fetch, so the open
  // itself may succeed — but touching the damaged table must fail.
  {
    DatabaseOptions paranoid;
    auto db = Database::Open(dir, paranoid);
    if (db.ok()) {
      Table* bad = (*db)->GetTable("bad").value();
      EXPECT_FALSE(bad->Get(0).ok());
    }
  }

  // Degraded open serves the healthy table and reports the damage.
  DatabaseOptions degraded;
  degraded.paranoid = false;
  auto db = Database::Open(dir, degraded);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_EQ((*db)->DamageReport().size(), 1u);
  EXPECT_EQ((*db)->DamageReport()[0].table, "bad");
  EXPECT_TRUE((*db)->DamageReport()[0].reason.IsCorruption());

  Result<Table*> bad = (*db)->GetTable("bad");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption());

  Table* good = (*db)->GetTable("good").value();
  uint64_t n = 0;
  ASSERT_TRUE(good->Scan([&](const Row&) {
                    ++n;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(n, 20u);
  EXPECT_EQ(good->Get(7).value()[1].AsText(), "g");
}

TEST(FailureInjectionTest, VideoStoreSurvivesJournalGarbage) {
  const std::string dir = FreshDir("fi_wal_garbage");
  {
    auto store = VideoStore::Open(dir).value();
    VideoRecord rec;
    rec.v_id = 1;
    rec.v_name = "keep";
    ASSERT_TRUE(store->PutVideo(rec).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // Random garbage appended to an otherwise-empty journal must be
  // ignored (checksum fails on the first record).
  {
    std::ofstream f(dir + "/journal.wal",
                    std::ios::binary | std::ios::app);
    f << "not a journal record at all";
  }
  auto store = VideoStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->GetVideo(1).value().v_name, "keep");
}

}  // namespace
}  // namespace vr
