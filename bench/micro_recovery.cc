/// \file micro_recovery.cc
/// \brief Microbenchmarks for crash recovery: WAL replay throughput,
/// checksum-verified open vs plain open, and full journal recovery,
/// each as a function of store size.

#include <benchmark/benchmark.h>
#include <sys/stat.h>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "storage/database.h"
#include "storage/wal.h"
#include "util/fault_injection_env.h"

namespace {

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

/// Scanning a synced journal of N records (parse + checksum only).
void BM_WalReplay(benchmark::State& state) {
  const std::string dir = BenchDir("wal_replay");
  const int64_t n = state.range(0);
  auto wal = vr::Wal::Open(dir + "/journal.wal").value();
  const std::vector<uint8_t> payload(128, 0x5A);
  for (int64_t i = 0; i < n; ++i) {
    (void)wal->AppendInsert("T", i, payload);
  }
  (void)wal->Sync();
  for (auto _ : state) {
    int64_t seen = 0;
    (void)wal->Replay([&](const vr::WalRecord&) {
      ++seen;
      return vr::Status::OK();
    });
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WalReplay)->Arg(100)->Arg(1000)->Arg(10000);

void BuildCleanStore(const std::string& dir, int64_t rows) {
  vr::DatabaseOptions options;
  options.create_if_missing = true;
  auto db = vr::Database::Open(dir, options).value();
  (void)db->CreateTable("T", RecoverySchema()).value();
  for (int64_t i = 0; i < rows; ++i) {
    (void)db->Insert("T", RecoveryRow(i, 2048)).value();
  }
  (void)db->Close();
}

/// Checkpointed open: catalog + pager metas, empty journal.
void BM_PlainOpen(benchmark::State& state) {
  const std::string dir = BenchDir("plain_open");
  BuildCleanStore(dir, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vr::Database::Open(dir, vr::DatabaseOptions{}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlainOpen)->Arg(100)->Arg(1000);

/// Degraded-mode open: every page of every file re-read and its
/// checksum verified before serving.
void BM_VerifiedOpen(benchmark::State& state) {
  const std::string dir = BenchDir("verified_open");
  BuildCleanStore(dir, state.range(0));
  vr::DatabaseOptions options;
  options.paranoid = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vr::Database::Open(dir, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifiedOpen)->Arg(100)->Arg(1000);

/// Full crash recovery: the durable state holds the catalog and a
/// journal of N committed inserts whose table pages never hit disk, so
/// every open scrubs and replays all N records from scratch.
void BM_CrashRecoveryOpen(benchmark::State& state) {
  const std::string dir = "crash_open";
  const int64_t n = state.range(0);
  vr::FaultInjectionEnv build_env;
  vr::DatabaseOptions options;
  options.create_if_missing = true;
  options.env = &build_env;
  auto db = vr::Database::Open(dir, options).value();
  (void)db->CreateTable("T", RecoverySchema()).value();
  for (int64_t i = 0; i < n; ++i) {
    (void)db->Insert("T", RecoveryRow(i, 700)).value();
  }
  // Snapshot before Close can checkpoint: the journal is durable, the
  // table pages are not — exactly the disk a crash would leave.
  const vr::FaultInjectionEnv::Snapshot crashed = build_env.DurableSnapshot();
  for (auto _ : state) {
    vr::FaultInjectionEnv env(crashed);
    options.env = &env;
    benchmark::DoNotOptimize(vr::Database::Open(dir, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CrashRecoveryOpen)->Arg(100)->Arg(1000);

}  // namespace
