#include "storage/database.h"

#include "util/logging.h"

namespace vr {

Database::~Database() {
  if (!closed_) {
    const Status st = Close();
    if (!st.ok()) {
      VR_LOG(Error) << "error closing database " << dir_ << ": "
                    << st.ToString();
    }
  }
}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& dir, const DatabaseOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (!env->FileExists(dir)) {
    if (!options.create_if_missing) {
      return Status::NotFound("no such database: " + dir);
    }
    VR_RETURN_NOT_OK(env->CreateDirIfMissing(dir));
  }
  auto db = std::unique_ptr<Database>(new Database(dir));
  db->env_ = env;
  db->paranoid_ = options.paranoid;
  VR_ASSIGN_OR_RETURN(db->catalog_, Catalog::Load(dir + "/catalog.vcat", env));
  VR_ASSIGN_OR_RETURN(db->wal_, Wal::Open(dir + "/journal.wal", env));

  for (const Catalog::TableDef& def : db->catalog_.tables()) {
    Result<std::unique_ptr<Table>> table =
        Table::Open(dir, def.name, def.schema, true, env);
    Status verdict = table.status();
    if (verdict.ok()) {
      for (const IndexSpec& spec : def.indexes) {
        verdict = table.value()->CreateIndex(spec);
        if (!verdict.ok()) break;
      }
    }
    // A degraded open proactively verifies every page so damage shows
    // up here, as a quarantined table, instead of later as a failing
    // query; a paranoid open leaves verification to Fetch.
    if (verdict.ok() && !options.paranoid) {
      verdict = table.value()->VerifyIntegrity();
    }
    if (!verdict.ok()) {
      if (options.paranoid) return verdict;
      VR_LOG(Warn) << "quarantining table " << def.name << ": "
                   << verdict.ToString();
      db->damage_.push_back(TableDamage{def.name, verdict});
      continue;
    }
    db->tables_.emplace(def.name, std::move(table).value());
  }
  VR_RETURN_NOT_OK(db->ReplayJournal());
  return db;
}

bool Database::IsQuarantined(const std::string& table) const {
  for (const TableDamage& d : damage_) {
    if (d.table == table) return true;
  }
  return false;
}

Status Database::ReplayJournal() {
  VR_ASSIGN_OR_RETURN(uint64_t journal_bytes, wal_->SizeBytes());
  if (journal_bytes == 0) return Status::OK();

  // The journal is non-empty, so the last shutdown was not a clean
  // checkpoint: table files may hold partially applied mutations.
  // First drop heap records the pk index does not vouch for (heap
  // synced before the index), rebuild the secondary indexes from what
  // is left, then replay.
  size_t scrubbed = 0;
  for (auto& [name, table] : tables_) {
    VR_ASSIGN_OR_RETURN(uint64_t n, table->ScrubOrphans());
    VR_RETURN_NOT_OK(table->RebuildSecondaryIndexes());
    scrubbed += n;
  }

  size_t applied = 0;
  VR_RETURN_NOT_OK(wal_->Replay([&](const WalRecord& record) -> Status {
    auto it = tables_.find(record.table);
    if (it == tables_.end()) {
      if (IsQuarantined(record.table)) {
        // The table is damaged beyond this journal's help; keep the
        // record (Checkpoint will not truncate) and move on.
        VR_LOG(Warn) << "journal: skipping record for quarantined table "
                     << record.table;
        return Status::OK();
      }
      // A journal record for a table the catalog does not know means the
      // catalog write raced the crash; surface it rather than guess.
      return Status::Corruption("journal references unknown table " +
                                record.table);
    }
    Table* table = it->second.get();
    if (record.op == WalOp::kInsert) {
      if (table->Exists(record.pk)) {
        // Present is not enough: the crash may have landed after the
        // pk-index sync but before the heap or blob sync, leaving a
        // row that reads back wrong. Trust it only if it matches the
        // journaled bytes exactly.
        if (table->MatchesPayload(record.pk, record.payload)) {
          return Status::OK();
        }
        VR_LOG(Warn) << "journal: row " << record.pk << " of "
                     << record.table
                     << " does not match its journal payload; re-applying";
        VR_RETURN_NOT_OK(table->ForceRemove(record.pk));
      }
      VR_ASSIGN_OR_RETURN(DecodedRow decoded,
                          DeserializeRow(table->schema(), record.payload));
      VR_RETURN_NOT_OK(table->Insert(decoded.values).status());
      ++applied;
    } else {
      Status st = table->Delete(record.pk);
      if (st.ok()) {
        ++applied;
      } else if (!st.IsNotFound()) {
        // The row is half-gone (e.g. its blob chain was already freed
        // before the crash); finish the job tolerantly.
        VR_LOG(Warn) << "journal: delete of " << record.pk << " from "
                     << record.table << " failed (" << st.ToString()
                     << "); force-removing";
        VR_RETURN_NOT_OK(table->ForceRemove(record.pk));
        ++applied;
      }
    }
    return Status::OK();
  }));
  if (applied > 0 || scrubbed > 0) {
    VR_LOG(Info) << "journal replay applied " << applied << " records";
    return Checkpoint();
  }
  return Status::OK();
}

Result<Table*> Database::CreateTable(const std::string& name,
                                     const Schema& schema) {
  VR_RETURN_NOT_OK(catalog_.AddTable(name, schema));
  VR_ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                      Table::Open(dir_, name, schema, true, env_));
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  VR_RETURN_NOT_OK(catalog_.Save(dir_ + "/catalog.vcat", env_));
  return raw;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    for (const TableDamage& d : damage_) {
      if (d.table == name) {
        return Status::Corruption("table " + name + " is quarantined: " +
                                  d.reason.ToString());
      }
    }
    return Status::NotFound("no such table: " + name);
  }
  return it->second.get();
}

Status Database::CreateIndex(const std::string& table, const IndexSpec& spec) {
  VR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  VR_RETURN_NOT_OK(t->CreateIndex(spec));
  VR_RETURN_NOT_OK(catalog_.AddIndex(table, spec));
  return catalog_.Save(dir_ + "/catalog.vcat", env_);
}

Result<int64_t> Database::Insert(const std::string& table, Row row) {
  std::vector<TableRow> rows;
  rows.emplace_back(table, std::move(row));
  VR_RETURN_NOT_OK(InsertBatch(rows));
  VR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  return rows[0].second[t->schema().primary_key_index()].AsInt64();
}

Status Database::InsertBatch(const std::vector<TableRow>& rows) {
  if (rows.empty()) return Status::OK();
  // Validate and serialize everything before journaling anything, so a
  // bad row cannot leave a half-journaled batch.
  std::vector<Table*> tables;
  std::vector<int64_t> pks;
  std::vector<std::vector<uint8_t>> payloads;
  tables.reserve(rows.size());
  pks.reserve(rows.size());
  payloads.reserve(rows.size());
  for (const auto& [table, row] : rows) {
    VR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
    VR_RETURN_NOT_OK(t->schema().ValidateRow(row));
    const int64_t pk = row[t->schema().primary_key_index()].AsInt64();
    bool duplicate = t->Exists(pk);
    for (size_t i = 0; i < pks.size() && !duplicate; ++i) {
      duplicate = tables[i] == t && pks[i] == pk;
    }
    if (duplicate) {
      return Status::AlreadyExists(table + ": duplicate pk " +
                                   std::to_string(pk));
    }
    VR_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                        SerializeRow(t->schema(), row));
    tables.push_back(t);
    pks.push_back(pk);
    payloads.push_back(std::move(payload));
  }

  // Journal the whole batch, then one sync covers every row.
  VR_RETURN_NOT_OK(JournalBatch([&]() -> Status {
    for (size_t i = 0; i < rows.size(); ++i) {
      VR_RETURN_NOT_OK(wal_->AppendInsert(rows[i].first, pks[i], payloads[i]));
    }
    return Status::OK();
  }));

  for (size_t i = 0; i < rows.size(); ++i) {
    VR_RETURN_NOT_OK(tables[i]->Insert(rows[i].second).status());
  }
  return Status::OK();
}

Status Database::JournalBatch(const std::function<Status()>& append) {
  VR_ASSIGN_OR_RETURN(const uint64_t before, wal_->SizeBytes());
  Status st = append();
  if (st.ok()) st = wal_->Sync();
  if (!st.ok()) {
    const Status undo = wal_->Truncate(before);
    if (!undo.ok()) {
      VR_LOG(Error) << "journal rollback to " << before
                    << " bytes failed: " << undo.ToString();
    }
  }
  return st;
}

Status Database::Delete(const std::string& table, int64_t pk) {
  return DeleteBatch({RowKey{table, pk}});
}

Status Database::DeleteBatch(const std::vector<RowKey>& keys) {
  if (keys.empty()) return Status::OK();
  // Check every row before journaling anything, so a missing row
  // cannot leave a half-journaled batch.
  std::vector<Table*> tables;
  tables.reserve(keys.size());
  for (const auto& [table, pk] : keys) {
    VR_ASSIGN_OR_RETURN(Table * t, GetTable(table));
    if (!t->Exists(pk)) {
      return Status::NotFound(table + ": no pk " + std::to_string(pk));
    }
    tables.push_back(t);
  }

  // Journal the whole batch, then one sync covers every delete.
  VR_RETURN_NOT_OK(JournalBatch([&]() -> Status {
    for (const auto& [table, pk] : keys) {
      VR_RETURN_NOT_OK(wal_->AppendDelete(table, pk));
    }
    return Status::OK();
  }));

  for (size_t i = 0; i < keys.size(); ++i) {
    VR_RETURN_NOT_OK(tables[i]->Delete(keys[i].second));
  }
  return Status::OK();
}

PagerStats Database::GetPagerStats() const {
  PagerStats total;
  for (const auto& [name, table] : tables_) {
    if (table != nullptr) total += table->GetPagerStats();
  }
  return total;
}

Status Database::Checkpoint() {
  // A partially constructed Database (Open failed mid-way) has no
  // journal; there is nothing to checkpoint.
  if (wal_ == nullptr) return Status::OK();
  for (auto& [name, table] : tables_) {
    VR_RETURN_NOT_OK(table->Sync());
  }
  if (!damage_.empty()) {
    // Quarantined tables could not apply their journal records;
    // truncating would erase the only surviving copy of those rows.
    VR_LOG(Warn) << "checkpoint: keeping journal (" << damage_.size()
                 << " quarantined table(s))";
    return Status::OK();
  }
  return wal_->Truncate();
}

Status Database::Close() {
  if (closed_) return Status::OK();
  VR_RETURN_NOT_OK(Checkpoint());
  closed_ = true;
  return Status::OK();
}

}  // namespace vr
