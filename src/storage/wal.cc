#include "storage/wal.h"

#include "util/byte_io.h"
#include "util/hash.h"
#include "util/logging.h"

namespace vr {

Wal::~Wal() = default;

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto wal = std::unique_ptr<Wal>(new Wal());
  wal->path_ = path;
  wal->env_ = env;
  VR_ASSIGN_OR_RETURN(wal->file_,
                      env->Open(path, Env::OpenMode::kCreateIfMissing));
  return wal;
}

Status Wal::Append(WalOp op, const std::string& table, int64_t pk,
                   const std::vector<uint8_t>& payload) {
  if (table.size() > UINT16_MAX) {
    return Status::InvalidArgument("table name too long for journal");
  }
  std::vector<uint8_t> record;
  record.reserve(payload.size() + table.size() + 32);
  PutU8(&record, static_cast<uint8_t>(op));
  PutU16(&record, static_cast<uint16_t>(table.size()));
  PutBytes(&record, table.data(), table.size());
  PutI64(&record, pk);
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutBytes(&record, payload.data(), payload.size());
  PutU64(&record, Fnv1a64(record.data(), record.size()));
  return file_->Append(record.data(), record.size());
}

Status Wal::AppendInsert(const std::string& table, int64_t pk,
                         const std::vector<uint8_t>& payload) {
  return Append(WalOp::kInsert, table, pk, payload);
}

Status Wal::AppendDelete(const std::string& table, int64_t pk) {
  return Append(WalOp::kDelete, table, pk, {});
}

Status Wal::Sync() { return file_->Sync(); }

Status Wal::Replay(const std::function<Status(const WalRecord&)>& cb) {
  // Make in-process appends visible to the fresh read below.
  VR_RETURN_NOT_OK(file_->Flush());
  Result<std::string> contents = env_->ReadFileToString(path_);
  if (!contents.ok()) return Status::OK();  // no journal yet
  const uint8_t* data =
      reinterpret_cast<const uint8_t*>(contents.value().data());
  ByteReader reader(data, contents.value().size());
  size_t replayed = 0;
  while (true) {
    // Any short read is a torn final record: stop replay there.
    const size_t start = reader.position();
    uint8_t op_raw = 0;
    uint16_t name_len = 0;
    const uint8_t* name = nullptr;
    int64_t pk = 0;
    uint32_t payload_len = 0;
    const uint8_t* payload = nullptr;
    if (!reader.ReadU8(&op_raw) || !reader.ReadU16(&name_len) ||
        !reader.ReadSpan(&name, name_len) || !reader.ReadI64(&pk) ||
        !reader.ReadU32(&payload_len) ||
        !reader.ReadSpan(&payload, payload_len)) {
      break;
    }
    const size_t body_size = reader.position() - start;
    uint64_t expect = 0;
    if (!reader.ReadU64(&expect)) break;

    if (Fnv1a64(data + start, body_size) != expect) {
      VR_LOG(Warn) << "journal: checksum mismatch after " << replayed
                   << " records; discarding tail";
      break;
    }
    if (op_raw != static_cast<uint8_t>(WalOp::kInsert) &&
        op_raw != static_cast<uint8_t>(WalOp::kDelete)) {
      VR_LOG(Warn) << "journal: unknown op " << int{op_raw}
                   << "; discarding tail";
      break;
    }
    WalRecord record;
    record.op = static_cast<WalOp>(op_raw);
    record.table.assign(reinterpret_cast<const char*>(name), name_len);
    record.pk = pk;
    record.payload.assign(payload, payload + payload_len);
    VR_RETURN_NOT_OK(cb(record));
    ++replayed;
  }
  return Status::OK();
}

Status Wal::Truncate(uint64_t size) {
  VR_RETURN_NOT_OK(file_->Truncate(size));
  return Sync();
}

Result<uint64_t> Wal::SizeBytes() const { return file_->Size(); }

}  // namespace vr
