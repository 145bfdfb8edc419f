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
  env.SetSyncObserver([&](const std::string&) {
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

/// One video a test commits or removes, with its key-frame ids.
struct Victim {
  int64_t v_id = 0;
  std::vector<int64_t> key_ids;
};

Answers AnswersOf(RetrievalEngine* engine, const std::vector<int64_t>& keep_ids,
                  const std::vector<Victim>& victims) {
  Answers out;
  for (int64_t i_id : keep_ids) out[i_id] = AnswerOf(engine, i_id);
  for (const Victim& victim : victims) {
    for (int64_t i_id : victim.key_ids) out[i_id] = AnswerOf(engine, i_id);
  }
  return out;
}

Answers AnswersOf(RetrievalEngine* engine, const TwoVideos& videos) {
  return AnswersOf(engine, videos.keep_ids,
                   {Victim{videos.victim, videos.victim_ids}});
}

/// Each victim video is either whole — its VIDEO_STORE row and every
/// KEY_FRAMES row — or gone from both. The victims went in or out in
/// one journal batch, so they are all whole or all gone, and every
/// answer is as \p whole or as \p gone accordingly.
void ExpectAllOrNothing(RetrievalEngine* engine,
                        const std::vector<int64_t>& keep_ids,
                        const std::vector<Victim>& victims,
                        const Answers& whole, const Answers& gone) {
  VideoStore* store = engine->store();
  size_t whole_videos = 0;
  size_t victim_rows = 0;
  for (const Victim& victim : victims) {
    const bool present = store->GetVideo(victim.v_id).ok();
    size_t rows = 0;
    for (int64_t i_id : victim.key_ids) {
      if (store->GetKeyFrame(i_id).ok()) ++rows;
    }
    EXPECT_EQ(rows, present ? victim.key_ids.size() : 0u)
        << "video " << victim.v_id << " row "
        << (present ? "present" : "gone") << " but " << rows << " of "
        << victim.key_ids.size() << " key-frame rows remain";
    if (present) {
      ++whole_videos;
      victim_rows += victim.key_ids.size();
    }
  }
  ASSERT_TRUE(whole_videos == 0 || whole_videos == victims.size())
      << whole_videos << " of " << victims.size()
      << " videos of one journal batch are present";
  const bool present = whole_videos != 0;
  EXPECT_EQ(engine->indexed_key_frames(), keep_ids.size() + victim_rows);
  const Answers& want = present ? whole : gone;
  for (const auto& [i_id, answer] : want) {
    EXPECT_EQ(AnswerOf(engine, i_id), answer)
        << "key frame " << i_id << (present ? " (video whole)" : " (removed)");
  }
}

void ExpectAllOrNothing(RetrievalEngine* engine, const TwoVideos& videos,
                        const Answers& whole, const Answers& gone) {
  ExpectAllOrNothing(engine, videos.keep_ids,
                     {Victim{videos.victim, videos.victim_ids}}, whole, gone);
}

TEST(CrashConsistencyTest, RemoveVideoKillAtEverySyncPoint) {
  const std::string dir = "remove_torture_db";
  FaultInjectionEnv env;
  bool recording = false;
  std::vector<FaultInjectionEnv::Snapshot> points;
  env.SetSyncObserver([&](const std::string&) {
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

/// Prepares \p frames as one video, as IngestFrames does before its
/// commit.
PreparedVideo Prepare(RetrievalEngine* engine, const std::vector<Image>& frames,
                      const std::string& name) {
  PreparedVideo video;
  video.name = name;
  const std::vector<KeyFrame> keys = engine->ExtractKeyFrames(frames).value();
  for (const KeyFrame& key : keys) {
    video.keys.push_back(engine->PrepareKeyFrame(name, key).value());
  }
  return video;
}

TEST(CrashConsistencyTest, CommitKillAtEverySyncPoint) {
  // A group commit of three videos, then a checkpoint. A kill at any
  // sync point of the commit leaves the group whole or absent; a kill
  // at any sync point of the checkpoint leaves it whole.
  const std::string dir = "commit_torture_db";
  FaultInjectionEnv env;
  bool recording = false;
  std::vector<FaultInjectionEnv::Snapshot> commit_points;
  std::vector<FaultInjectionEnv::Snapshot> checkpoint_points;
  std::vector<FaultInjectionEnv::Snapshot>* points = &commit_points;
  env.SetSyncObserver([&](const std::string&) {
    if (recording) points->push_back(env.DurableSnapshot());
  });
  std::unique_ptr<RetrievalEngine> engine =
      RetrievalEngine::Open(dir, RemoveTestOptions(&env)).value();
  const int64_t keep =
      engine->IngestFrames(TinyVideo(VideoCategory::kSports, 3), "keep")
          .value();
  const std::vector<int64_t> keep_ids =
      engine->store()->KeyFrameIdsOfVideo(keep).value();

  // The ids the group will assign, so the answers before it cover the
  // victims' key frames too.
  const std::vector<std::vector<Image>> clips = {
      TinyVideo(VideoCategory::kCartoon, 4),
      TinyVideo(VideoCategory::kMovie, 5),
      TinyVideo(VideoCategory::kNews, 6)};
  const auto prepare_group = [&](RetrievalEngine* e) {
    std::vector<PreparedVideo> group;
    for (size_t v = 0; v < clips.size(); ++v) {
      group.push_back(Prepare(e, clips[v], "victim" + std::to_string(v)));
    }
    return group;
  };
  std::vector<PreparedVideo> group = prepare_group(engine.get());
  std::vector<Victim> victims;
  int64_t next_key = engine->store()->PeekNextKeyFrameId();
  for (size_t v = 0; v < group.size(); ++v) {
    Victim victim;
    victim.v_id = engine->store()->PeekNextVideoId() + static_cast<int64_t>(v);
    ASSERT_GE(group[v].keys.size(), 2u);
    for (size_t k = 0; k < group[v].keys.size(); ++k) {
      victim.key_ids.push_back(next_key++);
    }
    victims.push_back(std::move(victim));
  }
  const Answers before = AnswersOf(engine.get(), keep_ids, victims);

  // The disk just before the commit is a kill point too.
  commit_points.push_back(env.DurableSnapshot());
  recording = true;
  const std::vector<int64_t> v_ids =
      engine->CommitGroup(std::move(group)).value();
  points = &checkpoint_points;
  ASSERT_TRUE(engine->Checkpoint().ok());
  recording = false;
  ASSERT_GE(commit_points.size(), 2u);
  ASSERT_GE(checkpoint_points.size(), 2u);
  ASSERT_EQ(engine->store()->database()->JournalBytes().value(), 0u);
  for (size_t v = 0; v < victims.size(); ++v) {
    ASSERT_EQ(v_ids[v], victims[v].v_id);
    ASSERT_EQ(engine->store()->KeyFrameIdsOfVideo(victims[v].v_id).value(),
              victims[v].key_ids);
  }
  const Answers after = AnswersOf(engine.get(), keep_ids, victims);
  engine.reset();

  for (size_t i = 0; i < commit_points.size(); ++i) {
    SCOPED_TRACE("commit sync point " + std::to_string(i));
    FaultInjectionEnv crashed(commit_points[i]);
    Result<std::unique_ptr<RetrievalEngine>> reopened =
        RetrievalEngine::Open(dir, RemoveTestOptions(&crashed));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    RetrievalEngine* e = reopened->get();
    ExpectAllOrNothing(e, keep_ids, victims, after, before);
    if (e->store()->GetVideo(victims.front().v_id).ok()) {
      // Whole videos can be removed again.
      for (const Victim& victim : victims) {
        ASSERT_TRUE(e->RemoveVideo(victim.v_id).ok());
      }
      EXPECT_EQ(e->indexed_key_frames(), keep_ids.size());
    } else {
      // Nothing is orphaned: committing the group again reuses its ids
      // and each video owns exactly its own key frames.
      ASSERT_EQ(e->CommitGroup(prepare_group(e)).value(), v_ids);
      for (const Victim& victim : victims) {
        EXPECT_EQ(e->store()->KeyFrameIdsOfVideo(victim.v_id).value(),
                  victim.key_ids);
      }
    }
  }
  for (size_t i = 0; i < checkpoint_points.size(); ++i) {
    SCOPED_TRACE("checkpoint sync point " + std::to_string(i));
    FaultInjectionEnv crashed(checkpoint_points[i]);
    Result<std::unique_ptr<RetrievalEngine>> reopened =
        RetrievalEngine::Open(dir, RemoveTestOptions(&crashed));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    RetrievalEngine* e = reopened->get();
    ExpectAllOrNothing(e, keep_ids, victims, after, before);
    ASSERT_TRUE(e->store()->GetVideo(victims.front().v_id).ok())
        << "a checkpoint lost committed videos";
    // The V_ID index agrees with the rows, so each video can be removed
    // whole.
    for (const Victim& victim : victims) {
      EXPECT_EQ(e->store()->KeyFrameIdsOfVideo(victim.v_id).value(),
                victim.key_ids);
      ASSERT_TRUE(e->RemoveVideo(victim.v_id).ok());
    }
    EXPECT_EQ(e->indexed_key_frames(), keep_ids.size());
    EXPECT_EQ(e->store()->KeyFrameCount().value(), keep_ids.size());
  }
}

TEST(CrashConsistencyTest, GroupCommitSyncFailureFailsTheWholeGroup) {
  FaultInjectionEnv env;
  std::unique_ptr<RetrievalEngine> engine =
      RetrievalEngine::Open("group_fail_db", RemoveTestOptions(&env)).value();
  const int64_t keep =
      engine->IngestFrames(TinyVideo(VideoCategory::kSports, 3), "keep")
          .value();
  const size_t keep_rows = engine->indexed_key_frames();
  const auto group = [&] {
    std::vector<PreparedVideo> videos;
    for (uint64_t v = 0; v < 3; ++v) {
      videos.push_back(Prepare(engine.get(),
                               TinyVideo(VideoCategory::kCartoon, 4 + v),
                               "victim" + std::to_string(v)));
    }
    return videos;
  };
  const int64_t first = engine->store()->PeekNextVideoId();

  // The group's first sync is its journal's: nothing may be applied.
  env.FailNthSync(1);
  const Result<std::vector<int64_t>> failed = engine->CommitGroup(group());
  ASSERT_TRUE(failed.status().IsIOError()) << failed.status();
  EXPECT_EQ(engine->indexed_key_frames(), keep_rows);
  EXPECT_EQ(engine->store()->VideoCount().value(), 1u);
  EXPECT_EQ(engine->store()->KeyFrameCount().value(), keep_rows);
  for (int64_t v_id = first; v_id < first + 3; ++v_id) {
    EXPECT_TRUE(engine->store()->GetVideo(v_id).status().IsNotFound());
  }

  // The failed group's ids stay consumed; the next group commits whole.
  const std::vector<int64_t> v_ids = engine->CommitGroup(group()).value();
  EXPECT_EQ(v_ids, (std::vector<int64_t>{first + 3, first + 4, first + 5}));
  for (int64_t v_id : v_ids) {
    EXPECT_FALSE(engine->store()->KeyFrameIdsOfVideo(v_id).value().empty());
  }
  EXPECT_TRUE(engine->store()->GetVideo(keep).ok());
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
