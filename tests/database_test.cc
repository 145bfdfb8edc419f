#include "storage/database.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include "eval/table1_runner.h"  // RemoveDirRecursive

namespace vr {

/// Holds a Database deliberately abandoned without Close() so its
/// journal survives (simulated crash). External linkage keeps the
/// object reachable, so LeakSanitizer does not flag the intentional
/// leak.
Database* g_crashed_db = nullptr;

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
                 {"DATA", ColumnType::kBlob, true},
             },
             "ID")
      .value();
}

Row MakeRow(int64_t id, const std::string& name,
            std::vector<uint8_t> blob = {}) {
  return {Value(id), Value(name), Value::Blob(std::move(blob))};
}

TEST(DatabaseTest, CreateInsertGet) {
  const std::string dir = FreshDir("db_basic");
  auto db = Database::Open(dir, kCreate).value();
  ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
  ASSERT_TRUE(db->Insert("t", MakeRow(1, "one")).ok());
  Table* t = db->GetTable("t").value();
  EXPECT_EQ(t->Get(1).value()[1].AsText(), "one");
}

TEST(DatabaseTest, OpenMissingWithoutCreateFails) {
  EXPECT_FALSE(Database::Open(FreshDir("db_missing"), DatabaseOptions{}).ok());
}

TEST(DatabaseTest, DuplicateTableRejected) {
  auto db = Database::Open(FreshDir("db_dup"), kCreate).value();
  ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
  EXPECT_TRUE(db->CreateTable("t", TestSchema()).status().IsAlreadyExists());
}

TEST(DatabaseTest, CatalogPersistsTablesAndIndexes) {
  const std::string dir = FreshDir("db_catalog");
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
    IndexSpec spec;
    spec.name = "by_id_low";
    spec.columns = {"ID"};
    spec.bits = {16};
    ASSERT_TRUE(db->CreateIndex("t", spec).ok());
    ASSERT_TRUE(db->Insert("t", MakeRow(3, "x")).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  {
    auto db = Database::Open(dir, DatabaseOptions{}).value();
    Table* t = db->GetTable("t").value();
    EXPECT_EQ(t->Count().value(), 1u);
    ASSERT_EQ(t->indexes().size(), 1u);
    EXPECT_EQ(t->indexes()[0].name, "by_id_low");
    // Index functional after reopen.
    int hits = 0;
    ASSERT_TRUE(t->ScanIndexRange("by_id_low", 3, 3, [&](int64_t) {
                      ++hits;
                      return true;
                    })
                    .ok());
    EXPECT_EQ(hits, 1);
  }
}

TEST(DatabaseTest, Delete) {
  auto db = Database::Open(FreshDir("db_mut"), kCreate).value();
  ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
  ASSERT_TRUE(db->Insert("t", MakeRow(1, "v1")).ok());
  Table* t = db->GetTable("t").value();
  EXPECT_TRUE(t->Exists(1));
  ASSERT_TRUE(db->Delete("t", 1).ok());
  EXPECT_FALSE(t->Exists(1));
  EXPECT_TRUE(db->Delete("t", 1).IsNotFound());
}

TEST(DatabaseTest, JournalGrowsAndCheckpointTruncates) {
  auto db = Database::Open(FreshDir("db_wal"), kCreate).value();
  ASSERT_TRUE(db->CreateTable("t", TestSchema()).ok());
  ASSERT_TRUE(db->Insert("t", MakeRow(1, "a")).ok());
  EXPECT_GT(db->JournalBytes().value(), 0u);
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(db->JournalBytes().value(), 0u);
}

// Simulates the exact crash window the WAL protects: the mutation was
// journaled and fsync'd, but the process died before the table files saw
// the apply. We reproduce that state by writing records straight into
// the journal of a cleanly checkpointed database.
TEST(DatabaseTest, CrashRecoveryReplaysJournal) {
  const std::string dir = FreshDir("db_crash");
  const Schema schema = TestSchema();
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", schema).ok());
    ASSERT_TRUE(db->Insert("t", MakeRow(1, "to be deleted")).ok());
    ASSERT_TRUE(db->Close().ok());  // checkpoint: journal empty
  }
  {
    // "Crash": journal carries an unapplied insert + delete.
    auto wal = Wal::Open(dir + "/journal.wal").value();
    const Row row = MakeRow(2, "recovered", {9, 9, 9});
    ASSERT_TRUE(
        wal->AppendInsert("t", 2, SerializeRow(schema, row).value()).ok());
    ASSERT_TRUE(wal->AppendDelete("t", 1).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  {
    auto db = Database::Open(dir, kCreate).value();
    Table* t = db->GetTable("t").value();
    EXPECT_FALSE(t->Exists(1));  // delete replayed
    ASSERT_TRUE(t->Exists(2));   // insert replayed
    EXPECT_EQ(t->Get(2).value()[1].AsText(), "recovered");
    EXPECT_EQ(t->Get(2).value()[2].AsBlob(), (std::vector<uint8_t>{9, 9, 9}));
    // Recovery checkpointed: journal is empty again.
    EXPECT_EQ(db->JournalBytes().value(), 0u);
  }
}

// Replaying a journal whose operations were already applied must not
// duplicate or lose rows (the apply-then-crash window).
TEST(DatabaseTest, RecoveryIsIdempotent) {
  const std::string dir = FreshDir("db_idem");
  const Schema schema = TestSchema();
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", schema).ok());
    ASSERT_TRUE(db->Insert("t", MakeRow(5, "five")).ok());
    // Flush the tables but do NOT checkpoint: the journal still holds
    // the already-applied insert, exactly as after a crash post-apply.
    ASSERT_TRUE(db->GetTable("t").value()->Sync().ok());
    g_crashed_db = db.release();  // skip Close() so the journal survives
  }
  for (int round = 0; round < 3; ++round) {
    auto db = Database::Open(dir, kCreate).value();
    Table* t = db->GetTable("t").value();
    EXPECT_EQ(t->Count().value(), 1u) << "round " << round;
    EXPECT_EQ(t->Get(5).value()[1].AsText(), "five");
    ASSERT_TRUE(db->Close().ok());
  }
}

TEST(DatabaseTest, BlobsSurviveRecovery) {
  const std::string dir = FreshDir("db_blob_crash");
  const Schema schema = TestSchema();
  std::vector<uint8_t> big(100000, 0x77);
  {
    auto db = Database::Open(dir, kCreate).value();
    ASSERT_TRUE(db->CreateTable("t", schema).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  {
    auto wal = Wal::Open(dir + "/journal.wal").value();
    const Row row = MakeRow(1, "blob", big);
    ASSERT_TRUE(
        wal->AppendInsert("t", 1, SerializeRow(schema, row).value()).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  {
    auto db = Database::Open(dir, kCreate).value();
    Table* t = db->GetTable("t").value();
    EXPECT_EQ(t->Get(1).value()[2].AsBlob(), big);
  }
}

TEST(DatabaseTest, GetTableNotFound) {
  auto db = Database::Open(FreshDir("db_nf"), kCreate).value();
  EXPECT_TRUE(db->GetTable("nope").status().IsNotFound());
  EXPECT_TRUE(db->Insert("nope", MakeRow(1, "")).status().IsNotFound());
}

}  // namespace
}  // namespace vr
