/// Crash-consistency torture tests.
///
/// A scripted workload (inserts, deletes and re-inserts with inline
/// and externalized blobs) runs against a FaultInjectionEnv. At EVERY
/// sync point the durable filesystem state is snapshotted together
/// with the set of committed rows at that instant. Each snapshot is
/// the disk a power cut would have left behind; every one is restored
/// into a fresh env and reopened, and recovery must surface every
/// committed row byte-for-byte — no loss, no phantoms. The only
/// tolerated divergence is the single operation in flight at the sync:
/// it may be fully present (its journal record was durable) or fully
/// absent, never half-applied.
///
/// The engine-level tests hold RetrievalEngine's commit and
/// RemoveVideo to the same standard: a killed commit or a killed or
/// failed remove leaves the video whole or gone, in the store and in
/// every stored-id query answer alike.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "retrieval/engine.h"
#include "storage/database.h"
#include "util/fault_injection_env.h"
#include "util/string_util.h"
#include "video/synth/generator.h"

namespace vr {
namespace {

constexpr const char* kTable = "T";

Schema TortureSchema() {
  return Schema::Create(
             {
                 {"ID", ColumnType::kInt64, false},
                 {"NAME", ColumnType::kText, true},
                 {"DATA", ColumnType::kBlob, true},
             },
             "ID")
      .value();
}

struct ModelRow {
  std::string name;
  std::vector<uint8_t> data;
  bool operator==(const ModelRow& o) const {
    return name == o.name && data == o.data;
  }
};

using Model = std::map<int64_t, ModelRow>;

struct PendingOp {
  enum Kind { kInsert, kDelete } kind = kInsert;
  int64_t pk = 0;
  ModelRow row;  // for kInsert
};

struct SyncPoint {
  FaultInjectionEnv::Snapshot disk;
  Model committed;
  std::optional<PendingOp> pending;
};

Row MakeRow(int64_t pk, const ModelRow& row) {
  return {Value(pk), Value(row.name), Value::Blob(row.data)};
}

/// Restores \p point into a fresh env, reopens the database, and
/// checks the recovered table against the committed model.
void VerifyRecovery(const std::string& dir, const SyncPoint& point,
                    size_t point_index) {
  SCOPED_TRACE("sync point " + std::to_string(point_index));
  FaultInjectionEnv env(point.disk);
  DatabaseOptions options;
  options.create_if_missing = true;
  options.env = &env;
  Result<std::unique_ptr<Database>> db = Database::Open(dir, options);
  ASSERT_TRUE(db.ok()) << db.status();

  Result<Table*> table = (*db)->GetTable(kTable);
  if (!table.ok()) {
    // Valid only while nothing was ever committed (the snapshot
    // predates the catalog write).
    ASSERT_TRUE(point.committed.empty()) << table.status();
    return;
  }

  // Collect what recovery produced, flagging duplicate pks (phantom
  // heap records) as they would double-count in scans.
  Model recovered;
  bool duplicate = false;
  ASSERT_TRUE((*table)
                  ->Scan([&](const Row& row) {
                    const int64_t pk = row[0].AsInt64();
                    ModelRow r;
                    r.name = row[1].is_null() ? "" : row[1].AsText();
                    if (row[2].is_blob()) r.data = row[2].AsBlob();
                    if (!recovered.emplace(pk, std::move(r)).second) {
                      duplicate = true;
                    }
                    return true;
                  })
                  .ok());
  EXPECT_FALSE(duplicate) << "phantom duplicate rows after recovery";

  // Zero loss: every committed row present, byte-for-byte. (A pending
  // delete's target may legitimately be gone.)
  for (const auto& [pk, row] : point.committed) {
    const bool deletable = point.pending.has_value() &&
                           point.pending->kind == PendingOp::kDelete &&
                           point.pending->pk == pk;
    auto it = recovered.find(pk);
    if (it == recovered.end()) {
      EXPECT_TRUE(deletable) << "committed row " << pk << " lost";
      continue;
    }
    EXPECT_TRUE(it->second == row) << "committed row " << pk << " mangled";
  }

  // Zero phantoms: nothing beyond the committed set plus (at most) the
  // fully applied in-flight insert.
  for (const auto& [pk, row] : recovered) {
    auto it = point.committed.find(pk);
    if (it != point.committed.end()) continue;
    const bool insertable = point.pending.has_value() &&
                            point.pending->kind == PendingOp::kInsert &&
                            point.pending->pk == pk;
    ASSERT_TRUE(insertable) << "phantom row " << pk << " after recovery";
    EXPECT_TRUE(row == point.pending->row)
        << "in-flight row " << pk << " recovered with wrong bytes";
  }

  // The reopened database must also be writable (recovery checkpointed
  // into a clean state).
  ModelRow probe{"probe", std::vector<uint8_t>(700, 0xAB)};
  EXPECT_TRUE((*db)->Insert(kTable, MakeRow(999999, probe)).ok());
}

TEST(CrashConsistencyTest, TortureKillAtEverySyncPoint) {
  const std::string dir = "torture_db";
  FaultInjectionEnv env;
  Model model;
  std::optional<PendingOp> pending;
  std::vector<SyncPoint> points;
  env.SetSyncObserver([&] {
    points.push_back(SyncPoint{env.DurableSnapshot(), model, pending});
  });

  DatabaseOptions options;
  options.create_if_missing = true;
  options.env = &env;
  auto db = Database::Open(dir, options).value();
  ASSERT_TRUE(db->CreateTable(kTable, TortureSchema()).ok());

  size_t mutations = 0;
  auto insert = [&](int64_t pk, const ModelRow& row) {
    pending = PendingOp{PendingOp::kInsert, pk, row};
    ASSERT_TRUE(db->Insert(kTable, MakeRow(pk, row)).ok()) << pk;
    model[pk] = row;
    pending.reset();
    ++mutations;
  };
  auto remove = [&](int64_t pk) {
    pending = PendingOp{PendingOp::kDelete, pk, {}};
    ASSERT_TRUE(db->Delete(kTable, pk).ok()) << pk;
    model.erase(pk);
    pending.reset();
    ++mutations;
  };

  // Phase 1: 30 inserts with blob sizes spanning inline (<= 512),
  // single-page external, and multi-page external chains.
  for (int64_t i = 0; i < 30; ++i) {
    ModelRow row;
    row.name = "row-" + std::to_string(i);
    const size_t sizes[] = {0, 80, 500, 900, 4000, 17000};
    row.data.assign(sizes[i % 6], static_cast<uint8_t>(0x30 + i));
    insert(i, row);
  }
  // Phase 2: delete every third row (10 deletes), freeing blob chains.
  for (int64_t i = 0; i < 30; i += 3) remove(i);
  // Phase 3: re-insert over the freed pages with different sizes.
  for (int64_t i = 0; i < 30; i += 3) {
    ModelRow row;
    row.name = "reborn-" + std::to_string(i);
    row.data.assign(static_cast<size_t>(600 + i * 137),
                    static_cast<uint8_t>(0x80 + i));
    insert(i, row);
  }
  ASSERT_GE(mutations, 50u);
  ASSERT_TRUE(db->Close().ok());
  db.reset();

  // Every sync of the whole run is a kill point.
  ASSERT_GE(points.size(), mutations);
  for (size_t i = 0; i < points.size(); ++i) {
    VerifyRecovery(dir, points[i], i);
  }
}

TEST(CrashConsistencyTest, PowerCutBeforeCheckpointRecoversFromJournal) {
  const std::string dir = "powercut_db";
  FaultInjectionEnv env;
  DatabaseOptions options;
  options.create_if_missing = true;
  options.env = &env;
  {
    auto db = Database::Open(dir, options).value();
    ASSERT_TRUE(db->CreateTable(kTable, TortureSchema()).ok());
    for (int64_t i = 0; i < 12; ++i) {
      // append() rather than "r" + ...: GCC 12's -Wrestrict false-fires
      // on const char* + string&& at -O2 (PR105329) under -Werror.
      ModelRow row{std::string("r").append(std::to_string(i)),
                   std::vector<uint8_t>(1500, static_cast<uint8_t>(i))};
      ASSERT_TRUE(db->Insert(kTable, MakeRow(i, row)).ok());
    }
    // No Close/Checkpoint: table pages are dirty in cache only.
    env.DropUnsyncedData();
  }
  auto db = Database::Open(dir, options).value();
  Table* t = db->GetTable(kTable).value();
  for (int64_t i = 0; i < 12; ++i) {
    Result<Row> row = t->Get(i);
    ASSERT_TRUE(row.ok()) << i << ": " << row.status();
    EXPECT_EQ((*row)[1].AsText(), std::string("r").append(std::to_string(i)));
    EXPECT_EQ((*row)[2].AsBlob(),
              std::vector<uint8_t>(1500, static_cast<uint8_t>(i)));
  }
}

TEST(CrashConsistencyTest, InjectedSyncFailureSurfacesAndDataSurvives) {
  const std::string dir = "syncfail_db";
  FaultInjectionEnv env;
  DatabaseOptions options;
  options.create_if_missing = true;
  options.env = &env;
  {
    auto db = Database::Open(dir, options).value();
    ASSERT_TRUE(db->CreateTable(kTable, TortureSchema()).ok());
    ModelRow ok_row{"committed", {1, 2, 3}};
    ASSERT_TRUE(db->Insert(kTable, MakeRow(1, ok_row)).ok());

    // The next journal sync fails: the insert must report the error
    // and MUST NOT claim durability.
    env.FailNthSync(1);
    ModelRow doomed{"doomed", {9, 9, 9}};
    const Status st = db->Insert(kTable, MakeRow(2, doomed)).status();
    EXPECT_TRUE(st.IsIOError()) << st;
    env.DropUnsyncedData();
  }
  auto db = Database::Open(dir, options).value();
  Table* t = db->GetTable(kTable).value();
  EXPECT_TRUE(t->Exists(1));
  EXPECT_FALSE(t->Exists(2)) << "failed-sync insert leaked into the table";
}

TEST(CrashConsistencyTest, InjectedWriteFailureSurfaces) {
  const std::string dir = "writefail_db";
  FaultInjectionEnv env;
  DatabaseOptions options;
  options.create_if_missing = true;
  options.env = &env;
  auto db = Database::Open(dir, options).value();
  ASSERT_TRUE(db->CreateTable(kTable, TortureSchema()).ok());
  env.FailNthWrite(1);
  const Status st =
      db->Insert(kTable, MakeRow(1, ModelRow{"x", {}})).status();
  EXPECT_TRUE(st.IsIOError()) << st;
}

/// Commits rows 1 and 2, arms \p fault, runs \p failing (which must
/// report IOError), commits row 100, then cuts the power before any
/// checkpoint and reopens the disk it left, so recovery replays the
/// journal. Returns which of rows 1..5 and 100 came back. Row 100's
/// successful sync is what would make durable any record the failed
/// write left in the journal.
std::vector<int64_t> RowsAfterFailedWrite(
    const std::string& dir,
    const std::function<void(FaultInjectionEnv*)>& fault,
    const std::function<Status(Database*)>& failing) {
  FaultInjectionEnv::Snapshot disk;
  {
    FaultInjectionEnv env;
    DatabaseOptions options;
    options.create_if_missing = true;
    options.env = &env;
    auto db = Database::Open(dir, options).value();
    EXPECT_TRUE(db->CreateTable(kTable, TortureSchema()).ok());
    for (int64_t pk : {1, 2}) {
      EXPECT_TRUE(db->Insert(kTable, MakeRow(pk, ModelRow{"kept", {1}})).ok());
    }
    fault(&env);
    const Status st = failing(db.get());
    EXPECT_TRUE(st.IsIOError()) << st;
    EXPECT_TRUE(db->Insert(kTable, MakeRow(100, ModelRow{"after", {2}})).ok());
    disk = env.DurableSnapshot();
  }
  FaultInjectionEnv env(disk);
  DatabaseOptions options;
  options.create_if_missing = true;  // snapshots omit directories
  options.env = &env;
  auto db = Database::Open(dir, options).value();
  Table* t = db->GetTable(kTable).value();
  std::vector<int64_t> present;
  for (int64_t pk : {1, 2, 3, 4, 5, 100}) {
    if (t->Exists(pk)) present.push_back(pk);
  }
  return present;
}

std::vector<Database::TableRow> ThreeNewRows() {
  return {{kTable, MakeRow(3, ModelRow{"doomed", {3}})},
          {kTable, MakeRow(4, ModelRow{"doomed", {4}})},
          {kTable, MakeRow(5, ModelRow{"doomed", {5}})}};
}

TEST(CrashConsistencyTest, FailedJournalSyncIsRolledBack) {
  const auto fail_sync = [](FaultInjectionEnv* env) { env->FailNthSync(1); };
  const std::vector<int64_t> untouched = {1, 2, 100};
  EXPECT_EQ(RowsAfterFailedWrite("rollback_insert_db", fail_sync,
                                 [](Database* db) {
                                   return db
                                       ->Insert(kTable,
                                                MakeRow(3, ModelRow{"x", {}}))
                                       .status();
                                 }),
            untouched);
  EXPECT_EQ(RowsAfterFailedWrite("rollback_insert_batch_db", fail_sync,
                                 [](Database* db) {
                                   return db->InsertBatch(ThreeNewRows());
                                 }),
            untouched);
  EXPECT_EQ(RowsAfterFailedWrite("rollback_delete_batch_db", fail_sync,
                                 [](Database* db) {
                                   return db->DeleteBatch(
                                       {{kTable, 1}, {kTable, 2}});
                                 }),
            untouched);
}

TEST(CrashConsistencyTest, BatchAppendFailurePartwayIsRolledBack) {
  // The first record of the batch reaches the journal; the second
  // append fails.
  const auto fail_second = [](FaultInjectionEnv* env) {
    env->FailNthWrite(2);
  };
  const std::vector<int64_t> untouched = {1, 2, 100};
  EXPECT_EQ(RowsAfterFailedWrite("partial_insert_batch_db", fail_second,
                                 [](Database* db) {
                                   return db->InsertBatch(ThreeNewRows());
                                 }),
            untouched);
  EXPECT_EQ(RowsAfterFailedWrite("partial_delete_batch_db", fail_second,
                                 [](Database* db) {
                                   return db->DeleteBatch(
                                       {{kTable, 1}, {kTable, 2}});
                                 }),
            untouched);
}

/// A store of two small videos: the keep_ids video stays, victim goes.
struct TwoVideos {
  std::unique_ptr<RetrievalEngine> engine;
  int64_t victim = 0;
  std::vector<int64_t> keep_ids;
  std::vector<int64_t> victim_ids;
};

/// QueryByStoredId answers keyed by key-frame id; an answer is the hit
/// list spelled exactly (hex-float scores) or the status text.
using Answers = std::map<int64_t, std::string>;

EngineOptions RemoveTestOptions(Env* env) {
  EngineOptions options;
  options.enabled_features = {FeatureKind::kColorHistogram,
                              FeatureKind::kGlcm};
  options.store_video_blob = false;
  options.env = env;
  return options;
}

std::vector<Image> TinyVideo(VideoCategory category, uint64_t seed) {
  SyntheticVideoSpec spec;
  spec.category = category;
  spec.width = 64;
  spec.height = 48;
  spec.num_scenes = 3;
  spec.frames_per_scene = 6;
  spec.seed = seed;
  return GenerateVideoFrames(spec).value();
}

void OpenTwoVideos(Env* env, const std::string& dir, TwoVideos* out) {
  out->engine = RetrievalEngine::Open(dir, RemoveTestOptions(env)).value();
  const int64_t keep =
      out->engine->IngestFrames(TinyVideo(VideoCategory::kSports, 3), "keep")
          .value();
  out->victim =
      out->engine->IngestFrames(TinyVideo(VideoCategory::kCartoon, 4), "victim")
          .value();
  out->keep_ids = out->engine->store()->KeyFrameIdsOfVideo(keep).value();
  out->victim_ids =
      out->engine->store()->KeyFrameIdsOfVideo(out->victim).value();
  // A partial remove is only visible with more than one key frame.
  ASSERT_GE(out->victim_ids.size(), 2u);
}

std::string AnswerOf(RetrievalEngine* engine, int64_t i_id) {
  Result<std::vector<QueryResult>> hits = engine->QueryByStoredId(i_id, 50);
  if (!hits.ok()) return hits.status().ToString();
  std::string out;
  for (const QueryResult& hit : *hits) {
    out += StringPrintf("%lld/%lld/%a ", static_cast<long long>(hit.i_id),
                        static_cast<long long>(hit.v_id), hit.score);
  }
  return out;
}

Answers AnswersOf(RetrievalEngine* engine, const TwoVideos& videos) {
  Answers out;
  for (const auto* ids : {&videos.keep_ids, &videos.victim_ids}) {
    for (int64_t i_id : *ids) out[i_id] = AnswerOf(engine, i_id);
  }
  return out;
}

/// The victim video is either whole — its VIDEO_STORE row, every
/// KEY_FRAMES row and every answer as \p whole — or gone from all
/// three, with every answer as \p gone.
void ExpectAllOrNothing(RetrievalEngine* engine, const TwoVideos& videos,
                        const Answers& whole, const Answers& gone) {
  VideoStore* store = engine->store();
  const bool present = store->GetVideo(videos.victim).ok();
  size_t rows = 0;
  for (int64_t i_id : videos.victim_ids) {
    if (store->GetKeyFrame(i_id).ok()) ++rows;
  }
  EXPECT_EQ(rows, present ? videos.victim_ids.size() : 0u)
      << "video row " << (present ? "present" : "gone") << " but " << rows
      << " of " << videos.victim_ids.size() << " key-frame rows remain";
  EXPECT_EQ(engine->indexed_key_frames(),
            videos.keep_ids.size() +
                (present ? videos.victim_ids.size() : 0u));
  const Answers& want = present ? whole : gone;
  for (const auto& [i_id, answer] : want) {
    EXPECT_EQ(AnswerOf(engine, i_id), answer)
        << "key frame " << i_id << (present ? " (video whole)" : " (removed)");
  }
}

TEST(CrashConsistencyTest, RemoveVideoKillAtEverySyncPoint) {
  const std::string dir = "remove_torture_db";
  FaultInjectionEnv env;
  bool recording = false;
  std::vector<FaultInjectionEnv::Snapshot> points;
  env.SetSyncObserver([&] {
    if (recording) points.push_back(env.DurableSnapshot());
  });
  TwoVideos videos;
  OpenTwoVideos(&env, dir, &videos);
  const Answers before = AnswersOf(videos.engine.get(), videos);

  // The disk just before the remove is a kill point too.
  points.push_back(env.DurableSnapshot());
  recording = true;
  ASSERT_TRUE(videos.engine->RemoveVideo(videos.victim).ok());
  recording = false;
  ASSERT_GE(points.size(), 2u);
  const Answers after = AnswersOf(videos.engine.get(), videos);
  for (int64_t i_id : videos.victim_ids) {
    ASSERT_TRUE(after.at(i_id).rfind("NotFound", 0) == 0) << after.at(i_id);
  }
  videos.engine.reset();

  for (size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("sync point " + std::to_string(i));
    FaultInjectionEnv crashed(points[i]);
    Result<std::unique_ptr<RetrievalEngine>> reopened =
        RetrievalEngine::Open(dir, RemoveTestOptions(&crashed));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ExpectAllOrNothing(reopened->get(), videos, before, after);
  }
}

TEST(CrashConsistencyTest, CommitKillAtEverySyncPoint) {
  const std::string dir = "commit_torture_db";
  FaultInjectionEnv env;
  bool recording = false;
  std::vector<FaultInjectionEnv::Snapshot> points;
  env.SetSyncObserver([&] {
    if (recording) points.push_back(env.DurableSnapshot());
  });
  TwoVideos videos;
  videos.engine = RetrievalEngine::Open(dir, RemoveTestOptions(&env)).value();
  const int64_t keep =
      videos.engine->IngestFrames(TinyVideo(VideoCategory::kSports, 3), "keep")
          .value();
  videos.keep_ids = videos.engine->store()->KeyFrameIdsOfVideo(keep).value();

  // The ids the commit will assign, so the answers before it cover the
  // victim's key frames too.
  const std::vector<Image> frames = TinyVideo(VideoCategory::kCartoon, 4);
  const size_t key_count =
      videos.engine->ExtractKeyFrames(frames).value().size();
  ASSERT_GE(key_count, 2u);
  videos.victim = videos.engine->store()->PeekNextVideoId();
  const int64_t first_key = videos.engine->store()->PeekNextKeyFrameId();
  for (size_t i = 0; i < key_count; ++i) {
    videos.victim_ids.push_back(first_key + static_cast<int64_t>(i));
  }
  const Answers before = AnswersOf(videos.engine.get(), videos);

  // The disk just before the commit is a kill point too.
  points.push_back(env.DurableSnapshot());
  recording = true;
  ASSERT_EQ(videos.engine->IngestFrames(frames, "victim").value(),
            videos.victim);
  recording = false;
  ASSERT_GE(points.size(), 2u);
  ASSERT_EQ(videos.engine->store()->KeyFrameIdsOfVideo(videos.victim).value(),
            videos.victim_ids);
  const Answers after = AnswersOf(videos.engine.get(), videos);
  videos.engine.reset();

  for (size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("sync point " + std::to_string(i));
    FaultInjectionEnv crashed(points[i]);
    Result<std::unique_ptr<RetrievalEngine>> reopened =
        RetrievalEngine::Open(dir, RemoveTestOptions(&crashed));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    RetrievalEngine* engine = reopened->get();
    ExpectAllOrNothing(engine, videos, after, before);
    if (engine->store()->GetVideo(videos.victim).ok()) {
      // A whole video can be removed again.
      ASSERT_TRUE(engine->RemoveVideo(videos.victim).ok());
      EXPECT_EQ(engine->indexed_key_frames(), videos.keep_ids.size());
    } else {
      // Nothing is orphaned: committing the video again reuses its ids
      // and owns exactly its own key frames.
      ASSERT_EQ(engine->IngestFrames(frames, "victim").value(),
                videos.victim);
      EXPECT_EQ(engine->store()->KeyFrameIdsOfVideo(videos.victim).value(),
                videos.victim_ids);
    }
  }
}

TEST(CrashConsistencyTest, RemoveVideoSyncFailureKeepsStoreAndMemory) {
  // Count the syncs of a healthy remove on the same workload.
  uint64_t remove_syncs = 0;
  Answers before;
  Answers after;
  {
    FaultInjectionEnv env;
    TwoVideos videos;
    OpenTwoVideos(&env, "remove_fail_dry_db", &videos);
    before = AnswersOf(videos.engine.get(), videos);
    const uint64_t start = env.sync_count();
    ASSERT_TRUE(videos.engine->RemoveVideo(videos.victim).ok());
    remove_syncs = env.sync_count() - start;
    after = AnswersOf(videos.engine.get(), videos);
  }
  ASSERT_GT(remove_syncs, 0u);

  // Fail each of those syncs in turn. A failed remove must leave the
  // store and memory serving every key frame of the video; a remove
  // that reports OK must have dropped it from both.
  for (uint64_t n = 1; n <= remove_syncs; ++n) {
    SCOPED_TRACE("failing sync " + std::to_string(n) + " of " +
                 std::to_string(remove_syncs));
    FaultInjectionEnv env;
    TwoVideos videos;
    OpenTwoVideos(&env, "remove_fail_db", &videos);
    env.FailNthSync(n);
    const Status removed = videos.engine->RemoveVideo(videos.victim);
    if (n == 1) {
      // The first sync is the journal's: nothing may be applied.
      EXPECT_TRUE(removed.IsIOError()) << removed;
      EXPECT_TRUE(videos.engine->store()->GetVideo(videos.victim).ok());
    }
    ExpectAllOrNothing(videos.engine.get(), videos, before, after);
  }
}

}  // namespace
}  // namespace vr
