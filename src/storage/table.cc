#include "storage/table.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace vr {

std::string IndexSpec::Serialize() const {
  std::vector<std::string> cols;
  for (size_t i = 0; i < columns.size(); ++i) {
    cols.push_back(columns[i] + ":" + std::to_string(bits[i]));
  }
  return name + ";" + Join(cols, ",");
}

Result<IndexSpec> IndexSpec::Parse(const std::string& text) {
  const std::vector<std::string> halves = Split(text, ';');
  if (halves.size() != 2) return Status::Corruption("bad index spec text");
  IndexSpec spec;
  spec.name = halves[0];
  for (const std::string& part : Split(halves[1], ',', /*skip_empty=*/true)) {
    const std::vector<std::string> fields = Split(part, ':');
    if (fields.size() != 2) return Status::Corruption("bad index column");
    spec.columns.push_back(fields[0]);
    VR_ASSIGN_OR_RETURN(int64_t b, ParseInt64(fields[1]));
    spec.bits.push_back(static_cast<int>(b));
  }
  return spec;
}

Result<std::unique_ptr<Table>> Table::Open(const std::string& dir,
                                           const std::string& name,
                                           const Schema& schema,
                                           bool create_if_missing, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto table = std::unique_ptr<Table>(new Table(dir, name, schema));
  table->env_ = env;
  const std::string base = dir + "/" + name;
  VR_ASSIGN_OR_RETURN(
      table->heap_pager_,
      Pager::Open(base + ".heap", create_if_missing, 256, env));
  VR_ASSIGN_OR_RETURN(
      table->pk_pager_,
      Pager::Open(base + ".pk.btree", create_if_missing, 256, env));
  VR_ASSIGN_OR_RETURN(
      table->blob_pager_,
      Pager::Open(base + ".blobs", create_if_missing, 256, env));
  VR_ASSIGN_OR_RETURN(table->heap_, HeapFile::Open(table->heap_pager_.get()));
  VR_ASSIGN_OR_RETURN(table->pk_index_,
                      BPlusTree::Open(table->pk_pager_.get()));
  table->blobs_ = std::make_unique<BlobStore>(table->blob_pager_.get());
  return table;
}

Result<int64_t> Table::PackIndexValue(const Schema& schema,
                                      const IndexSpec& spec, const Row& row) {
  if (spec.columns.empty() || spec.columns.size() > 2 ||
      spec.columns.size() != spec.bits.size()) {
    return Status::InvalidArgument("index spec needs 1..2 columns with bits");
  }
  int total_bits = 0;
  for (int b : spec.bits) total_bits += b;
  if (total_bits > 32) {
    return Status::InvalidArgument("index key exceeds 32 bits");
  }
  int64_t packed = 0;
  for (size_t i = 0; i < spec.columns.size(); ++i) {
    VR_ASSIGN_OR_RETURN(size_t col, schema.ColumnIndex(spec.columns[i]));
    if (schema.columns()[col].type != ColumnType::kInt64) {
      return Status::InvalidArgument("index column must be INT64: " +
                                     spec.columns[i]);
    }
    if (row[col].is_null()) {
      return Status::InvalidArgument("NULL in indexed column " +
                                     spec.columns[i]);
    }
    const int64_t v = row[col].AsInt64();
    const int64_t limit = int64_t{1} << spec.bits[i];
    if (v < 0 || v >= limit) {
      return Status::OutOfRange(StringPrintf(
          "value %lld does not fit %d-bit index column %s",
          static_cast<long long>(v), spec.bits[i], spec.columns[i].c_str()));
    }
    packed = (packed << spec.bits[i]) | v;
  }
  return packed;
}

Status Table::CreateIndex(const IndexSpec& spec) {
  for (const auto& existing : secondary_) {
    if (existing->spec.name == spec.name) {
      return Status::AlreadyExists("index exists: " + spec.name);
    }
  }
  auto index = std::make_unique<SecondaryIndex>();
  index->spec = spec;
  const std::string path = dir_ + "/" + name_ + "." + spec.name + ".btree";
  VR_ASSIGN_OR_RETURN(index->pager, Pager::Open(path, true, 256, env_));
  VR_ASSIGN_OR_RETURN(index->tree, BPlusTree::Open(index->pager.get()));

  // Backfill from existing rows if the index file is empty.
  VR_ASSIGN_OR_RETURN(uint64_t existing_entries, index->tree->Count());
  if (existing_entries == 0) {
    SecondaryIndex* raw = index.get();
    Status backfill = Status::OK();
    VR_RETURN_NOT_OK(heap_->Scan(
        [&](const Rid& rid, const std::vector<uint8_t>& bytes) {
          Result<DecodedRow> decoded = DeserializeRow(schema_, bytes);
          if (!decoded.ok()) {
            backfill = decoded.status();
            return false;
          }
          const int64_t pk =
              decoded->values[schema_.primary_key_index()].AsInt64();
          Result<int64_t> packed =
              PackIndexValue(schema_, raw->spec, decoded->values);
          if (!packed.ok()) {
            backfill = packed.status();
            return false;
          }
          const int64_t key = (packed.value() << 32) |
                              (pk & 0xFFFFFFFFLL);
          backfill = raw->tree->Insert(key, rid);
          return backfill.ok();
        }));
    VR_RETURN_NOT_OK(backfill);
  }
  secondary_.push_back(std::move(index));
  return Status::OK();
}

std::vector<IndexSpec> Table::indexes() const {
  std::vector<IndexSpec> out;
  for (const auto& idx : secondary_) out.push_back(idx->spec);
  return out;
}

Status Table::InsertIndexEntries(const Row& row, int64_t pk, const Rid& rid) {
  for (const auto& idx : secondary_) {
    VR_ASSIGN_OR_RETURN(int64_t packed,
                        PackIndexValue(schema_, idx->spec, row));
    VR_RETURN_NOT_OK(idx->tree->Insert((packed << 32) | (pk & 0xFFFFFFFFLL),
                                       rid));
  }
  return Status::OK();
}

Status Table::DeleteIndexEntries(const Row& row, int64_t pk) {
  for (const auto& idx : secondary_) {
    VR_ASSIGN_OR_RETURN(int64_t packed,
                        PackIndexValue(schema_, idx->spec, row));
    VR_RETURN_NOT_OK(idx->tree->Delete((packed << 32) | (pk & 0xFFFFFFFFLL)));
  }
  return Status::OK();
}

Result<int64_t> Table::Insert(const Row& row) {
  VR_RETURN_NOT_OK(schema_.ValidateRow(row));
  const int64_t pk = row[schema_.primary_key_index()].AsInt64();
  if (!secondary_.empty() && (pk < 0 || pk > INT32_MAX)) {
    return Status::OutOfRange(
        "primary key must fit 32 bits when secondary indexes exist");
  }
  if (Exists(pk)) {
    return Status::AlreadyExists(StringPrintf(
        "%s: pk %lld exists", name_.c_str(), static_cast<long long>(pk)));
  }

  // Externalize large blob and text values (VARCHAR -> CLOB style).
  std::vector<std::optional<BlobRef>> refs(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    if (schema_.columns()[i].type == ColumnType::kBlob && row[i].is_blob() &&
        row[i].AsBlob().size() > kInlineBlobLimit) {
      VR_ASSIGN_OR_RETURN(BlobRef ref, blobs_->Put(row[i].AsBlob()));
      refs[i] = ref;
    } else if (schema_.columns()[i].type == ColumnType::kText &&
               row[i].is_text() &&
               row[i].AsText().size() > kInlineBlobLimit) {
      const std::string& text = row[i].AsText();
      VR_ASSIGN_OR_RETURN(
          BlobRef ref,
          blobs_->Put(std::vector<uint8_t>(text.begin(), text.end())));
      refs[i] = ref;
    }
  }
  VR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                      SerializeRowWithRefs(schema_, row, refs));
  VR_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(bytes));
  VR_RETURN_NOT_OK(pk_index_->Insert(pk, rid));
  VR_RETURN_NOT_OK(InsertIndexEntries(row, pk, rid));
  return pk;
}

Result<int64_t> Table::Upsert(const Row& row) {
  VR_RETURN_NOT_OK(schema_.ValidateRow(row));
  const int64_t pk = row[schema_.primary_key_index()].AsInt64();
  if (Exists(pk)) {
    VR_RETURN_NOT_OK(Delete(pk));
  }
  return Insert(row);
}

bool Table::Exists(int64_t pk) const { return pk_index_->Get(pk).ok(); }

Result<Row> Table::MaterializeRow(const std::vector<uint8_t>& bytes,
                                  bool resolve_blobs) const {
  VR_ASSIGN_OR_RETURN(DecodedRow decoded, DeserializeRow(schema_, bytes));
  for (size_t i = 0; i < decoded.values.size(); ++i) {
    if (!decoded.blob_refs[i].has_value()) continue;
    const bool is_text = schema_.columns()[i].type == ColumnType::kText;
    // Overflowed TEXT always resolves (queries need it); BLOB columns
    // resolve only on request — skipping them is what makes metadata
    // scans over multi-megabyte video rows cheap.
    if (!is_text && !resolve_blobs) continue;
    VR_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                        blobs_->Get(*decoded.blob_refs[i]));
    if (is_text) {
      decoded.values[i] = Value(std::string(blob.begin(), blob.end()));
    } else {
      decoded.values[i] = Value::Blob(std::move(blob));
    }
  }
  return decoded.values;
}

Result<Row> Table::Get(int64_t pk) const {
  VR_ASSIGN_OR_RETURN(Rid rid, pk_index_->Get(pk));
  VR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, heap_->Get(rid));
  return MaterializeRow(bytes, /*resolve_blobs=*/true);
}

Status Table::Delete(int64_t pk) {
  VR_ASSIGN_OR_RETURN(Rid rid, pk_index_->Get(pk));
  VR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, heap_->Get(rid));
  VR_ASSIGN_OR_RETURN(DecodedRow decoded, DeserializeRow(schema_, bytes));
  for (const auto& ref : decoded.blob_refs) {
    if (ref.has_value()) {
      VR_RETURN_NOT_OK(blobs_->Delete(*ref));
    }
  }
  VR_RETURN_NOT_OK(DeleteIndexEntries(decoded.values, pk));
  VR_RETURN_NOT_OK(heap_->Delete(rid));
  VR_RETURN_NOT_OK(pk_index_->Delete(pk));
  return Status::OK();
}

Status Table::Scan(const std::function<bool(const Row&)>& cb,
                   bool resolve_blobs) const {
  Status inner = Status::OK();
  VR_RETURN_NOT_OK(
      heap_->Scan([&](const Rid&, const std::vector<uint8_t>& bytes) {
        Result<Row> row = MaterializeRow(bytes, resolve_blobs);
        if (!row.ok()) {
          inner = row.status();
          return false;
        }
        return cb(row.value());
      }));
  return inner;
}

Status Table::ScanIndexRange(const std::string& index_name, int64_t lo,
                             int64_t hi,
                             const std::function<bool(int64_t pk)>& cb) const {
  for (const auto& idx : secondary_) {
    if (idx->spec.name != index_name) continue;
    if (lo > hi) return Status::OK();
    const int64_t key_lo = lo << 32;
    const int64_t key_hi = (hi << 32) | 0xFFFFFFFFLL;
    return idx->tree->ScanRange(key_lo, key_hi,
                                [&](int64_t key, const Rid&) {
                                  return cb(key & 0xFFFFFFFFLL);
                                });
  }
  return Status::NotFound("no such index: " + index_name);
}

Result<uint64_t> Table::Count() const { return pk_index_->Count(); }

PagerStats Table::GetPagerStats() const {
  PagerStats total;
  total += heap_pager_->GetStats();
  total += pk_pager_->GetStats();
  total += blob_pager_->GetStats();
  for (const auto& idx : secondary_) {
    total += idx->pager->GetStats();
  }
  return total;
}

Status Table::Flush() {
  VR_RETURN_NOT_OK(heap_pager_->Flush());
  VR_RETURN_NOT_OK(pk_pager_->Flush());
  VR_RETURN_NOT_OK(blob_pager_->Flush());
  for (const auto& idx : secondary_) {
    VR_RETURN_NOT_OK(idx->pager->Flush());
  }
  return Status::OK();
}

Status Table::Sync() {
  VR_RETURN_NOT_OK(heap_pager_->Sync());
  VR_RETURN_NOT_OK(pk_pager_->Sync());
  VR_RETURN_NOT_OK(blob_pager_->Sync());
  for (const auto& idx : secondary_) {
    VR_RETURN_NOT_OK(idx->pager->Sync());
  }
  return Status::OK();
}

Status Table::VerifyIntegrity() {
  VR_RETURN_NOT_OK(heap_pager_->VerifyAllPages());
  VR_RETURN_NOT_OK(pk_pager_->VerifyAllPages());
  VR_RETURN_NOT_OK(blob_pager_->VerifyAllPages());
  for (const auto& idx : secondary_) {
    VR_RETURN_NOT_OK(idx->pager->VerifyAllPages());
  }
  return Status::OK();
}

Result<uint64_t> Table::ScrubOrphans() {
  // A crash between the heap sync and the pk-index sync leaves heap
  // records the index has never heard of; replaying the journal would
  // then insert a second copy, and scans would see phantoms. Collect
  // first, delete after — deleting while scanning would shift live
  // slots under the scan.
  std::vector<Rid> orphans;
  VR_RETURN_NOT_OK(
      heap_->Scan([&](const Rid& rid, const std::vector<uint8_t>& bytes) {
        Result<DecodedRow> decoded = DeserializeRow(schema_, bytes);
        if (!decoded.ok()) {
          // Undecodable record: torn heap write; drop it too.
          orphans.push_back(rid);
          return true;
        }
        const int64_t pk =
            decoded->values[schema_.primary_key_index()].AsInt64();
        Result<Rid> indexed = pk_index_->Get(pk);
        if (!indexed.ok() || !(indexed.value() == rid)) {
          orphans.push_back(rid);
        }
        return true;
      }));
  for (const Rid& rid : orphans) {
    VR_RETURN_NOT_OK(heap_->Delete(rid));
  }
  if (!orphans.empty()) {
    VR_LOG(Warn) << name_ << ": scrubbed " << orphans.size()
                 << " orphan heap record(s) left by a crash";
  }
  return static_cast<uint64_t>(orphans.size());
}

Status Table::RebuildSecondaryIndexes() {
  Env* env = env_ != nullptr ? env_ : Env::Default();
  std::vector<IndexSpec> specs;
  for (auto& idx : secondary_) {
    specs.push_back(idx->spec);
    const std::string path = idx->pager->path();
    idx->tree.reset();
    idx->pager.reset();
    VR_RETURN_NOT_OK(env->DeleteFile(path));
  }
  secondary_.clear();
  // An empty index file is backfilled from the heap as it opens.
  for (const IndexSpec& spec : specs) VR_RETURN_NOT_OK(CreateIndex(spec));
  return Status::OK();
}

Status Table::ForceRemove(int64_t pk) {
  Result<Rid> rid = pk_index_->Get(pk);
  if (rid.ok()) {
    Result<std::vector<uint8_t>> bytes = heap_->Get(rid.value());
    if (bytes.ok()) {
      Result<DecodedRow> decoded = DeserializeRow(schema_, bytes.value());
      if (decoded.ok()) {
        for (const auto& ref : decoded->blob_refs) {
          // Blob chains may be half-written or reverted; BlobStore
          // type-checks pages before freeing, so a failed free here
          // leaks at worst — it never frees a live page.
          if (ref.has_value()) (void)blobs_->Delete(*ref);
        }
        (void)DeleteIndexEntries(decoded->values, pk);
      }
      (void)heap_->Delete(rid.value());
    }
    VR_RETURN_NOT_OK(pk_index_->Delete(pk));
  }
  return Status::OK();
}

bool Table::MatchesPayload(int64_t pk,
                           const std::vector<uint8_t>& payload) const {
  Result<Rid> rid = pk_index_->Get(pk);
  if (!rid.ok()) return false;
  Result<std::vector<uint8_t>> bytes = heap_->Get(rid.value());
  if (!bytes.ok()) return false;
  Result<Row> row = MaterializeRow(bytes.value(), /*resolve_blobs=*/true);
  if (!row.ok()) return false;
  Result<std::vector<uint8_t>> serialized = SerializeRow(schema_, row.value());
  return serialized.ok() && serialized.value() == payload;
}

}  // namespace vr
