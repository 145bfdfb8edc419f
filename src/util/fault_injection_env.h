/// \file fault_injection_env.h
/// \brief In-memory Env test double with deterministic fault injection.
///
/// Backs every file with two byte buffers: the *live* contents (what
/// readers see) and the *durable* contents (what survives a power cut,
/// advanced only by Sync). On top of that it can
///   (a) fail the Nth write or sync with IOError,
///   (b) drop un-synced data — simulating a power cut — either in place
///       or as an exported snapshot a fresh env can be built from, and
///   (c) flip a bit inside the Nth written buffer (silent media
///       corruption on the write path).
///
/// Crash-consistency torture tests install a sync observer, snapshot
/// the durable state at every sync point of a scripted workload, and
/// reopen each snapshot asserting that recovery loses no committed row
/// and fabricates no phantom row.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/env.h"

namespace vr {

/// \brief Deterministic in-memory filesystem with fault knobs.
class FaultInjectionEnv : public Env {
 public:
  /// Durable state of the filesystem: path -> file contents.
  using Snapshot = std::map<std::string, std::vector<uint8_t>>;

  FaultInjectionEnv() = default;
  /// Builds an env whose files start as \p snapshot (live == durable),
  /// i.e. the disk as found after a power cut.
  explicit FaultInjectionEnv(Snapshot snapshot);

  /// \name Env interface.
  /// @{
  Result<std::unique_ptr<EnvFile>> Open(const std::string& path,
                                        OpenMode mode) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status CreateDirIfMissing(const std::string& path) override;
  /// @}

  /// \name Power-cut simulation.
  /// @{
  /// Reverts every file to its durable contents; files never synced
  /// disappear. Open handles keep working against the reverted bytes.
  void DropUnsyncedData();
  /// Durable contents of every synced file (directories omitted).
  Snapshot DurableSnapshot() const;
  /// @}

  /// \name Deterministic faults. Counters are 1-based and one-shot:
  /// FailNthWrite(3) makes the 3rd write from now fail; 0 disables.
  /// @{
  void FailNthWrite(uint64_t n) { fail_write_at_ = n == 0 ? 0 : write_count_ + n; }
  void FailNthSync(uint64_t n) { fail_sync_at_ = n == 0 ? 0 : sync_count_ + n; }
  /// Flips \p bit_index (mod buffer bits) inside the payload of the
  /// Nth write from now; the write itself succeeds.
  void CorruptNthWrite(uint64_t n, uint64_t bit_index);
  /// @}

  /// Invoked after every successful Sync with the synced file's path
  /// (torture tests snapshot here).
  void SetSyncObserver(std::function<void(const std::string&)> observer) {
    sync_observer_ = std::move(observer);
  }

  uint64_t write_count() const { return write_count_; }
  uint64_t sync_count() const { return sync_count_; }

 private:
  friend class FaultInjectionFile;

  struct FileState {
    std::vector<uint8_t> live;
    std::vector<uint8_t> durable;
    bool exists_live = false;     ///< directory entry present now
    bool exists_durable = false;  ///< directory entry survives a power cut
  };

  /// Returns IOError when the next write is scheduled to fail, and
  /// applies scheduled bit corruption to \p data in place.
  Status OnWrite(std::vector<uint8_t>* data);
  Status OnSync();

  std::map<std::string, std::shared_ptr<FileState>> files_;
  std::set<std::string> dirs_;
  uint64_t write_count_ = 0;
  uint64_t sync_count_ = 0;
  uint64_t fail_write_at_ = 0;  // absolute write index; 0 = disabled
  uint64_t fail_sync_at_ = 0;
  uint64_t corrupt_write_at_ = 0;
  uint64_t corrupt_bit_ = 0;
  std::function<void(const std::string&)> sync_observer_;
};

}  // namespace vr
