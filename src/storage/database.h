/// \file database.h
/// \brief The embedded database: catalog + tables + journal + recovery.
///
/// A database is a directory. Mutations routed through the Database are
/// journaled (journal-first, fsync, then apply), so a crash between
/// commit and page flush is recovered by replay on the next Open.
/// Replay is hardened against partially applied mutations: orphan heap
/// records (heap synced, pk index not) are scrubbed, and a journaled
/// row whose on-disk bytes do not match the journal payload is removed
/// and re-applied. Checkpoint() flushes every table and truncates the
/// journal.
///
/// With DatabaseOptions::paranoid = false, Open verifies every page of
/// every table and quarantines damaged tables instead of failing: the
/// database serves the healthy majority, quarantined tables report
/// Corruption from GetTable, and DamageReport() lists the casualties.
/// Journal records for quarantined tables are preserved (the journal
/// is not truncated) so a repaired table can still be recovered.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "util/env.h"

namespace vr {

/// \brief Knobs for Database::Open.
struct DatabaseOptions {
  bool create_if_missing = false;
  /// When true (default), any table that fails to open or verify fails
  /// the whole Open. When false, such tables are quarantined and the
  /// rest of the database stays usable.
  bool paranoid = true;
  /// All filesystem I/O goes through this Env (Env::Default() if null).
  Env* env = nullptr;
};

/// \brief One table Open quarantined instead of serving.
struct TableDamage {
  std::string table;
  Status reason;
};

/// \brief Directory-backed database with WAL-based crash recovery.
class Database {
 public:
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens a database directory, loads the catalog, opens every table
  /// and replays the journal.
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                const DatabaseOptions& options);

  /// Creates a table and persists the catalog.
  Result<Table*> CreateTable(const std::string& name, const Schema& schema);

  /// Looks up an open table; NotFound when absent, Corruption when the
  /// table was quarantined by a degraded open.
  Result<Table*> GetTable(const std::string& name);

  /// Creates a secondary index and persists the catalog.
  Status CreateIndex(const std::string& table, const IndexSpec& spec);

  /// Journaled insert: a one-row InsertBatch. Returns the row's pk;
  /// AlreadyExists on pk collision.
  Result<int64_t> Insert(const std::string& table, Row row);

  /// One (table, row) pair of a multi-table InsertBatch.
  using TableRow = std::pair<std::string, Row>;

  /// Journaled batch insert, possibly across tables: validates every
  /// row up front (AlreadyExists on any pk collision, against the table
  /// or within the batch), journals all rows under a single fsync, then
  /// applies them in order. The WAL-first contract is unchanged — once
  /// this returns OK the whole batch survives a crash; on a journaling
  /// error nothing was applied and the journal is rolled back. The one
  /// sync per batch (instead of one per row) is what makes bulk ingest
  /// commit at memory speed, and one batch per video is what keeps a
  /// crash from leaving key frames without their video row.
  Status InsertBatch(const std::vector<TableRow>& rows);

  /// Journaled delete by primary key.
  Status Delete(const std::string& table, int64_t pk);

  /// One (table, primary key) pair of a DeleteBatch.
  using RowKey = std::pair<std::string, int64_t>;

  /// Journaled batch delete, possibly across tables: checks that every
  /// row exists (NotFound otherwise) before journaling anything,
  /// journals every delete under a single fsync, then applies them in
  /// order. Once this returns OK the whole batch survives a crash; on
  /// a journaling error nothing was applied and the journal is rolled
  /// back.
  Status DeleteBatch(const std::vector<RowKey>& keys);

  /// Flushes all tables and truncates the journal. With quarantined
  /// tables present the journal is preserved instead of truncated.
  Status Checkpoint();

  /// Checkpoint + close. Called by the destructor if needed.
  Status Close();

  const std::string& dir() const { return dir_; }

  /// Tables a degraded open quarantined; empty after a paranoid open.
  const std::vector<TableDamage>& DamageReport() const { return damage_; }

  /// Bytes currently pending in the journal.
  Result<uint64_t> JournalBytes() const { return wal_->SizeBytes(); }

  /// Aggregated buffer-pool statistics over every open table.
  /// Thread-safe once Open has returned (the table set is immutable
  /// afterwards unless CreateTable is called, which this codebase only
  /// does during open).
  PagerStats GetPagerStats() const;

 private:
  explicit Database(std::string dir) : dir_(std::move(dir)) {}

  Status ReplayJournal();
  /// Journals one batch: runs \p append (the batch's Wal appends), then
  /// one sync. On any failure the journal is cut back to its size
  /// before the batch, so a later successful sync cannot make durable
  /// a write that returned an error.
  Status JournalBatch(const std::function<Status()>& append);
  bool IsQuarantined(const std::string& table) const;

  std::string dir_;
  Env* env_ = nullptr;
  bool paranoid_ = true;
  Catalog catalog_;
  std::unique_ptr<Wal> wal_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<TableDamage> damage_;
  bool closed_ = false;
};

}  // namespace vr
