#include "util/fault_injection_env.h"

#include <algorithm>
#include <cstring>

namespace vr {

/// File handle over a shared FileState. Handles stay valid across
/// DeleteFile/RenameFile (POSIX semantics) and observe DropUnsyncedData
/// immediately, like a block device reverting under an open fd.
class FaultInjectionFile : public EnvFile {
 public:
  using FileState = FaultInjectionEnv::FileState;

  FaultInjectionFile(FaultInjectionEnv* env, std::string path,
                     std::shared_ptr<FileState> state)
      : env_(env), path_(std::move(path)), state_(std::move(state)) {}

  Result<size_t> ReadAt(uint64_t offset, void* out, size_t n) override {
    const std::vector<uint8_t>& live = state_->live;
    if (offset >= live.size()) return size_t{0};
    const size_t got = std::min<size_t>(n, live.size() - offset);
    std::memcpy(out, live.data() + offset, got);
    return got;
  }

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    std::vector<uint8_t> buf(static_cast<const uint8_t*>(data),
                             static_cast<const uint8_t*>(data) + n);
    VR_RETURN_NOT_OK(env_->OnWrite(&buf));
    std::vector<uint8_t>& live = state_->live;
    if (offset + n > live.size()) live.resize(offset + n, 0);
    if (n > 0) std::memcpy(live.data() + offset, buf.data(), n);
    return Status::OK();
  }

  Status Append(const void* data, size_t n) override {
    return WriteAt(state_->live.size(), data, n);
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    VR_RETURN_NOT_OK(env_->OnSync());
    state_->durable = state_->live;
    state_->exists_durable = true;
    if (env_->sync_observer_) env_->sync_observer_(path_);
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    return static_cast<uint64_t>(state_->live.size());
  }

  Status Truncate(uint64_t size) override {
    VR_RETURN_NOT_OK(env_->OnWrite(nullptr));
    state_->live.resize(size, 0);
    return Status::OK();
  }

 private:
  FaultInjectionEnv* env_;
  std::string path_;  ///< the path it was opened under
  std::shared_ptr<FileState> state_;
};

FaultInjectionEnv::FaultInjectionEnv(Snapshot snapshot) {
  for (auto& [path, bytes] : snapshot) {
    auto state = std::make_shared<FileState>();
    state->live = bytes;
    state->durable = std::move(bytes);
    state->exists_live = true;
    state->exists_durable = true;
    files_.emplace(path, std::move(state));
  }
}

Status FaultInjectionEnv::OnWrite(std::vector<uint8_t>* data) {
  ++write_count_;
  if (fail_write_at_ != 0 && write_count_ >= fail_write_at_) {
    fail_write_at_ = 0;
    return Status::IOError("injected write failure");
  }
  if (corrupt_write_at_ != 0 && write_count_ == corrupt_write_at_) {
    corrupt_write_at_ = 0;
    if (data != nullptr && !data->empty()) {
      const uint64_t bit = corrupt_bit_ % (data->size() * 8);
      (*data)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  return Status::OK();
}

Status FaultInjectionEnv::OnSync() {
  ++sync_count_;
  if (fail_sync_at_ != 0 && sync_count_ >= fail_sync_at_) {
    fail_sync_at_ = 0;
    return Status::IOError("injected sync failure");
  }
  return Status::OK();
}

void FaultInjectionEnv::CorruptNthWrite(uint64_t n, uint64_t bit_index) {
  corrupt_write_at_ = n == 0 ? 0 : write_count_ + n;
  corrupt_bit_ = bit_index;
}

Result<std::unique_ptr<EnvFile>> FaultInjectionEnv::Open(
    const std::string& path, OpenMode mode) {
  auto it = files_.find(path);
  const bool exists = it != files_.end() && it->second->exists_live;
  if (!exists && mode == OpenMode::kMustExist) {
    return Status::IOError("cannot open " + path + ": no such file");
  }
  std::shared_ptr<FileState> state;
  if (exists) {
    state = it->second;
    if (mode == OpenMode::kTruncate) state->live.clear();
  } else {
    state = std::make_shared<FileState>();
    state->exists_live = true;
    files_[path] = state;
  }
  return std::unique_ptr<EnvFile>(new FaultInjectionFile(this, path, state));
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end() && it->second->exists_live) return true;
  return dirs_.count(path) > 0;
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end() || !it->second->exists_live) {
    return Status::IOError("cannot delete " + path + ": no such file");
  }
  files_.erase(it);
  return Status::OK();
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end() || !it->second->exists_live) {
    return Status::IOError("cannot rename " + from + ": no such file");
  }
  std::shared_ptr<FileState> state = it->second;
  files_.erase(it);
  // Journaled-metadata model: the rename is atomic and durable, so the
  // renamed file's current contents become its durable contents.
  state->durable = state->live;
  state->exists_durable = true;
  files_[to] = std::move(state);
  return Status::OK();
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& path) {
  dirs_.insert(path);
  return Status::OK();
}

void FaultInjectionEnv::DropUnsyncedData() {
  for (auto it = files_.begin(); it != files_.end();) {
    FileState& state = *it->second;
    if (!state.exists_durable) {
      state.exists_live = false;
      state.live.clear();
      it = files_.erase(it);
      continue;
    }
    state.live = state.durable;
    ++it;
  }
}

FaultInjectionEnv::Snapshot FaultInjectionEnv::DurableSnapshot() const {
  Snapshot out;
  for (const auto& [path, state] : files_) {
    if (state->exists_durable) out.emplace(path, state->durable);
  }
  return out;
}

}  // namespace vr
