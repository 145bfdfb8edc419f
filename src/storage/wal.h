/// \file wal.h
/// \brief Logical write-ahead journal for crash recovery.
///
/// Every committed mutation (row insert / delete) is appended to the
/// journal — with blob values inlined — and fsync'd before the table
/// files are touched. On open, the database replays the journal
/// idempotently, so a crash between journal append and page flush loses
/// nothing. Checkpoint() truncates the journal after flushing all pages.
///
/// Record layout: u8 op | u16 table-name length | name | i64 pk |
/// u32 payload length | payload | u64 FNV-1a of everything before it.
/// A torn final record (short read or bad checksum) terminates replay
/// cleanly.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/status.h"

namespace vr {

/// Journal operations.
enum class WalOp : uint8_t {
  kInsert = 1,
  kDelete = 2,
};

/// One replayed journal record.
struct WalRecord {
  WalOp op = WalOp::kInsert;
  std::string table;
  int64_t pk = 0;
  std::vector<uint8_t> payload;  // serialized row for kInsert
};

/// \brief Append-only journal file.
class Wal {
 public:
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (creating if needed) the journal at \p path. All I/O goes
  /// through \p env (Env::Default() when null).
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           Env* env = nullptr);

  /// Appends an insert record (payload = serialized row, blobs inline).
  Status AppendInsert(const std::string& table, int64_t pk,
                      const std::vector<uint8_t>& payload);

  /// Appends a delete record.
  Status AppendDelete(const std::string& table, int64_t pk);

  /// Flushes and fsyncs the journal.
  Status Sync();

  /// Replays every intact record from the start of the journal.
  Status Replay(const std::function<Status(const WalRecord&)>& cb);

  /// Cuts the journal back to its first \p size bytes and syncs: 0
  /// empties it after a checkpoint, a batch's starting size rolls back
  /// a batch that failed to journal.
  Status Truncate(uint64_t size = 0);

  /// Current journal size in bytes.
  Result<uint64_t> SizeBytes() const;

 private:
  Wal() = default;
  Status Append(WalOp op, const std::string& table, int64_t pk,
                const std::vector<uint8_t>& payload);

  std::string path_;
  Env* env_ = nullptr;
  std::unique_ptr<EnvFile> file_;
};

}  // namespace vr
