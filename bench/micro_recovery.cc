/// \file micro_recovery.cc
/// \brief Crash-recovery timings: WAL replay throughput,
/// checksum-verified open vs plain open, and full journal recovery,
/// each as a function of store size. Plain executable, no arguments;
/// prints one row per measurement and size, and exits 1 if any of them
/// fails.

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "storage/database.h"
#include "storage/wal.h"
#include "util/fault_injection_env.h"
#include "util/stopwatch.h"

namespace {

/// Each measurement repeats its operation until this much wall time
/// has passed (and at least kMinIters times), then reports the mean.
constexpr double kMinSeconds = 0.5;
constexpr int kMinIters = 3;

std::string BenchDir(const char* name) {
  const std::string dir = std::string("/tmp/vretrieve_bench_") + name;
  vr::RemoveDirRecursive(dir);
  mkdir(dir.c_str(), 0755);
  return dir;
}

vr::Schema RecoverySchema() {
  return vr::Schema::Create(
             {
                 {"ID", vr::ColumnType::kInt64, false},
                 {"NAME", vr::ColumnType::kText, true},
                 {"DATA", vr::ColumnType::kBlob, true},
             },
             "ID")
      .value();
}

vr::Row RecoveryRow(int64_t pk, size_t blob_bytes) {
  return {vr::Value(pk), vr::Value("row-" + std::to_string(pk)),
          vr::Value::Blob(std::vector<uint8_t>(
              blob_bytes, static_cast<uint8_t>(pk & 0xFF)))};
}

/// Times \p op (which returns false on failure) and prints the row.
/// \p items is the number of records or rows one call processes.
bool Measure(const char* name, int64_t items, const std::function<bool()>& op) {
  int iters = 0;
  vr::Stopwatch sw;
  while (iters < kMinIters || sw.ElapsedSeconds() < kMinSeconds) {
    if (!op()) {
      std::fprintf(stderr, "%s/%lld failed\n", name,
                   static_cast<long long>(items));
      return false;
    }
    ++iters;
  }
  const double seconds = sw.ElapsedSeconds();
  std::printf("%-20s %7lld %7d %12.3f %14.0f\n", name,
              static_cast<long long>(items), iters, seconds * 1e3 / iters,
              static_cast<double>(items) * iters / seconds);
  return true;
}

/// Scanning a synced journal of N records (parse + checksum only).
bool WalReplay(int64_t n) {
  const std::string dir = BenchDir("wal_replay");
  auto wal = vr::Wal::Open(dir + "/journal.wal").value();
  const std::vector<uint8_t> payload(128, 0x5A);
  for (int64_t i = 0; i < n; ++i) {
    if (!wal->AppendInsert("T", i, payload).ok()) return false;
  }
  if (!wal->Sync().ok()) return false;
  return Measure("wal_replay", n, [&] {
    int64_t seen = 0;
    const vr::Status s = wal->Replay([&](const vr::WalRecord&) {
      ++seen;
      return vr::Status::OK();
    });
    return s.ok() && seen == n;
  });
}

bool BuildCleanStore(const std::string& dir, int64_t rows) {
  vr::DatabaseOptions options;
  options.create_if_missing = true;
  auto db = vr::Database::Open(dir, options).value();
  if (!db->CreateTable("T", RecoverySchema()).ok()) return false;
  for (int64_t i = 0; i < rows; ++i) {
    if (!db->Insert("T", RecoveryRow(i, 2048)).ok()) return false;
  }
  return db->Close().ok();
}

/// Checkpointed open: catalog + pager metas, empty journal.
bool PlainOpen(int64_t rows) {
  const std::string dir = BenchDir("plain_open");
  if (!BuildCleanStore(dir, rows)) return false;
  return Measure("plain_open", rows, [&] {
    return vr::Database::Open(dir, vr::DatabaseOptions{}).ok();
  });
}

/// Degraded-mode open: every page of every file re-read and its
/// checksum verified before serving.
bool VerifiedOpen(int64_t rows) {
  const std::string dir = BenchDir("verified_open");
  if (!BuildCleanStore(dir, rows)) return false;
  vr::DatabaseOptions options;
  options.paranoid = false;
  return Measure("verified_open", rows,
                 [&] { return vr::Database::Open(dir, options).ok(); });
}

/// Full crash recovery: the durable state holds the catalog and a
/// journal of N committed inserts whose table pages never hit disk, so
/// every open scrubs and replays all N records from scratch.
bool CrashRecoveryOpen(int64_t n) {
  const std::string dir = "crash_open";
  vr::FaultInjectionEnv build_env;
  vr::DatabaseOptions options;
  options.create_if_missing = true;
  options.env = &build_env;
  auto db = vr::Database::Open(dir, options).value();
  if (!db->CreateTable("T", RecoverySchema()).ok()) return false;
  for (int64_t i = 0; i < n; ++i) {
    if (!db->Insert("T", RecoveryRow(i, 700)).ok()) return false;
  }
  // Snapshot before Close can checkpoint: the journal is durable, the
  // table pages are not — exactly the disk a crash would leave.
  const vr::FaultInjectionEnv::Snapshot crashed = build_env.DurableSnapshot();
  return Measure("crash_recovery_open", n, [&] {
    vr::FaultInjectionEnv env(crashed);
    options.env = &env;
    return vr::Database::Open(dir, options).ok();
  });
}

}  // namespace

int main() {
  std::printf("%-20s %7s %7s %12s %14s\n", "measurement", "n", "iters",
              "ms/op", "items/s");
  bool ok = true;
  for (int64_t n : {100, 1000, 10000}) ok = ok && WalReplay(n);
  for (int64_t n : {100, 1000}) ok = ok && PlainOpen(n);
  for (int64_t n : {100, 1000}) ok = ok && VerifiedOpen(n);
  for (int64_t n : {100, 1000}) ok = ok && CrashRecoveryOpen(n);
  return ok ? 0 : 1;
}
