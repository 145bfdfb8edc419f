/// \file table.h
/// \brief A table: schema + heap file + primary/secondary B+tree indexes
/// + blob store, each in its own page file under the database directory.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/blob_store.h"
#include "storage/bplus_tree.h"
#include "storage/heap_file.h"
#include "storage/row.h"
#include "storage/schema.h"
#include "util/env.h"

namespace vr {

/// \brief Declaration of a secondary index over 1..2 INT64 columns.
///
/// Keys are packed as (col bits | ...) << 32 | pk, so the index supports
/// duplicates; column values must fit their declared bit widths
/// (unsigned) and primary keys must fit 32 bits. That covers this
/// system's uses: the KEY_FRAMES (MIN, MAX) range index (8 bits each)
/// and the KEY_FRAMES V_ID foreign-key index (32 bits).
struct IndexSpec {
  std::string name;
  std::vector<std::string> columns;  // 1 or 2 INT64 column names
  std::vector<int> bits;             // per-column widths, sum <= 32

  /// "name;col:bits,col:bits" round-trip form for the catalog.
  std::string Serialize() const;
  static Result<IndexSpec> Parse(const std::string& text);
};

/// \brief Blob values larger than this stay inline in the heap record.
inline constexpr size_t kInlineBlobLimit = 512;

/// \brief Heap-backed table with pk and secondary indexes.
class Table {
 public:
  /// Opens/creates the table's files under \p dir, doing all I/O
  /// through \p env (Env::Default() when null).
  static Result<std::unique_ptr<Table>> Open(const std::string& dir,
                                             const std::string& name,
                                             const Schema& schema,
                                             bool create_if_missing,
                                             Env* env = nullptr);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Adds (and, if rows exist, backfills) a secondary index.
  Status CreateIndex(const IndexSpec& spec);

  /// Declared secondary indexes.
  std::vector<IndexSpec> indexes() const;

  /// Inserts a row; the primary key is taken from the row itself.
  /// AlreadyExists on pk collision.
  Result<int64_t> Insert(const Row& row);

  /// Inserts, replacing any existing row with the same pk.
  Result<int64_t> Upsert(const Row& row);

  /// Fetches by primary key, resolving out-of-row blobs.
  Result<Row> Get(int64_t pk) const;

  /// True when the pk exists.
  bool Exists(int64_t pk) const;

  /// Deletes by primary key (row, blobs, index entries).
  Status Delete(int64_t pk);

  /// Full scan in heap order; \p resolve_blobs controls whether blob
  /// columns are materialized (skipping them leaves NULL in their place,
  /// which is much faster when scanning metadata of large videos).
  /// The callback returns false to stop.
  Status Scan(const std::function<bool(const Row&)>& cb,
              bool resolve_blobs = true) const;

  /// Scans pks whose packed index value for \p index_name lies in
  /// [lo, hi] (values as packed by the IndexSpec, before the pk suffix).
  Status ScanIndexRange(const std::string& index_name, int64_t lo, int64_t hi,
                        const std::function<bool(int64_t pk)>& cb) const;

  /// Packs the indexed columns of \p row per \p spec (exposed for tests).
  static Result<int64_t> PackIndexValue(const Schema& schema,
                                        const IndexSpec& spec, const Row& row);

  /// Number of live rows.
  Result<uint64_t> Count() const;

  /// Flushes all page files.
  Status Flush();

  /// Flush + fsync all page files.
  Status Sync();

  /// \name Crash-recovery support (used by Database).
  /// @{
  /// Re-reads every page of every file, verifying checksums; first
  /// failure wins. Used by degraded open to quarantine damaged tables.
  Status VerifyIntegrity();

  /// Deletes heap records whose primary-key index entry is missing or
  /// points at a different rid — the fallout of a crash after the heap
  /// file was synced but before the pk index was. Returns the number of
  /// records removed.
  Result<uint64_t> ScrubOrphans();

  /// Best-effort removal of a possibly half-written row: every step
  /// (blob chain free, index entries, heap slot, pk entry) proceeds
  /// even when earlier ones fail. Used by replay before re-applying a
  /// journal record whose on-disk application is suspect.
  Status ForceRemove(int64_t pk);

  /// True when the stored row with \p pk materializes (blobs included)
  /// and re-serializes to exactly \p payload (a journal payload, blobs
  /// inline). Any read or decode failure counts as a mismatch.
  bool MatchesPayload(int64_t pk, const std::vector<uint8_t>& payload) const;
  /// @}

  /// Aggregated buffer-pool statistics over every page file of this
  /// table (heap, pk index, blobs, secondary indexes). Thread-safe.
  PagerStats GetPagerStats() const;

 private:
  Table(std::string dir, std::string name, Schema schema)
      : dir_(std::move(dir)), name_(std::move(name)),
        schema_(std::move(schema)) {}

  struct SecondaryIndex {
    IndexSpec spec;
    std::unique_ptr<Pager> pager;
    std::unique_ptr<BPlusTree> tree;
  };

  Result<Row> MaterializeRow(const std::vector<uint8_t>& bytes,
                             bool resolve_blobs) const;
  Status InsertIndexEntries(const Row& row, int64_t pk, const Rid& rid);
  Status DeleteIndexEntries(const Row& row, int64_t pk);

  std::string dir_;
  std::string name_;
  Schema schema_;
  Env* env_ = nullptr;
  std::unique_ptr<Pager> heap_pager_;
  std::unique_ptr<Pager> pk_pager_;
  std::unique_ptr<Pager> blob_pager_;
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<BPlusTree> pk_index_;
  std::unique_ptr<BlobStore> blobs_;
  std::vector<std::unique_ptr<SecondaryIndex>> secondary_;
};

}  // namespace vr
