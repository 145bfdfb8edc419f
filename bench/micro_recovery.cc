/// \file micro_recovery.cc
/// \brief Crash-recovery timings: WAL replay throughput,
/// checksum-verified open vs plain open, and full journal recovery,
/// each as a function of store size; then an engine reopen after a
/// process exit, as a function of the length of the session before it.
/// Plain executable, no arguments; prints one row per measurement and
/// size, and exits 1 if any of them fails.

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "eval/table1_runner.h"  // RemoveDirRecursive
#include "retrieval/engine.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "util/fault_injection_env.h"
#include "util/stopwatch.h"
#include "video/synth/generator.h"

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

/// Blob bytes per video of an exit session: a Table 1 video's file.
constexpr size_t kSessionBlobBytes = size_t{3} << 20;

/// A session of blob ingest that ends in _Exit, run in a child process
/// on \p dir: each video commits one key frame and a kSessionBlobBytes
/// blob, and each commit after the first removes the video before it,
/// so the store stays small while the journal sees every byte. The
/// session ingests about \p target_bytes, and ends only once the
/// journal is within three videos of the checkpoint threshold: the
/// longest replay a session of that length can leave. Returns the
/// blob bytes ingested, 0 when the child did not get to its exit.
size_t RunExitSession(const std::string& dir, size_t target_bytes) {
  constexpr size_t kSlack = 3 * kSessionBlobBytes;
  const size_t threshold = vr::RetrievalEngine::kJournalCheckpointBytes;
  vr::RemoveDirRecursive(dir);
  const pid_t child = fork();
  if (child < 0) return 0;
  if (child == 0) {
    auto engine = vr::RetrievalEngine::Open(dir).value();
    vr::SyntheticVideoSpec spec;
    spec.width = 128;
    spec.height = 96;
    spec.num_scenes = 1;
    spec.frames_per_scene = 2;
    const std::vector<vr::Image> frames =
        vr::GenerateVideoFrames(spec).value();
    const vr::KeyFrame key = engine->ExtractKeyFrames(frames).value().front();
    const vr::PreparedKeyFrame prepared =
        engine->PrepareKeyFrame("session", key).value();
    int64_t previous = 0;
    for (size_t done = 0;
         done + kSlack < target_bytes ||
         engine->store()->database()->JournalBytes().value() + kSlack <
             threshold;
         done += kSessionBlobBytes) {
      vr::PreparedVideo video;
      video.name = "session";
      video.keys = {prepared};
      video.video_blob.assign(kSessionBlobBytes,
                              static_cast<uint8_t>(done >> 20));
      const int64_t v_id = engine->CommitPrepared(std::move(video)).value();
      if (previous != 0 && !engine->RemoveVideo(previous).ok()) _Exit(0);
      previous = v_id;
    }
    // No destructors: the disk a crash would leave. The exit code
    // carries the session length in videos (a 4x session is ~85).
    _Exit(previous < 256 ? static_cast<int>(previous) : 0);
  }
  int status = 0;
  if (waitpid(child, &status, 0) != child || !WIFEXITED(status)) return 0;
  return static_cast<size_t>(WEXITSTATUS(status)) * kSessionBlobBytes;
}

/// Whether \p engine holds exactly what the session of \p session_bytes
/// committed and did not remove: its last video, blob intact.
bool SessionSurvived(vr::RetrievalEngine* engine, size_t session_bytes) {
  const size_t videos = session_bytes / kSessionBlobBytes;
  const vr::Result<vr::VideoRecord> last =
      engine->store()->GetVideo(static_cast<int64_t>(videos));
  const std::vector<uint8_t> blob(
      kSessionBlobBytes,
      static_cast<uint8_t>(((videos - 1) * kSessionBlobBytes) >> 20));
  return last.ok() && last->video == blob &&
         engine->store()->VideoCount().value() == 1 &&
         engine->indexed_key_frames() == 1;
}

/// Reopening the engine after a session of about \p multiple times the
/// journal's checkpoint threshold that ended in _Exit with a nearly
/// full journal: recovery replays only the journal since the last
/// checkpoint, so the time stays flat however long the session ran.
/// Each iteration reopens a fresh copy of the exited store (the copy
/// is not timed) and checks that the session's last video came back.
bool ExitRecoveryOpen(int multiple) {
  const std::string exited = "/tmp/vretrieve_bench_exit_session";
  const std::string dir = "/tmp/vretrieve_bench_exit_reopen";
  const size_t session_bytes = RunExitSession(
      exited, vr::RetrievalEngine::kJournalCheckpointBytes * multiple);
  if (session_bytes == 0) {
    std::fprintf(stderr, "exit session %d failed\n", multiple);
    return false;
  }
  const uint64_t journal =
      std::filesystem::file_size(exited + "/journal.wal");
  double seconds = 0.0;
  int iters = 0;
  while (iters < kMinIters || seconds < kMinSeconds) {
    vr::RemoveDirRecursive(dir);
    std::filesystem::copy(exited, dir,
                          std::filesystem::copy_options::recursive);
    vr::Stopwatch sw;
    auto opened = vr::RetrievalEngine::Open(dir);
    seconds += sw.ElapsedSeconds();
    if (!opened.ok() || !SessionSurvived(opened->get(), session_bytes)) {
      std::fprintf(stderr, "exit_recovery_open/%d failed: %s\n", multiple,
                   opened.status().ToString().c_str());
      return false;
    }
    ++iters;
  }
  const long long session_mib = static_cast<long long>(session_bytes >> 20);
  std::printf("%-20s %7lld %7d %12.3f %14.0f   (session MiB; journal "
              "at exit %.1f MiB)\n",
              "exit_recovery_open", session_mib, iters, seconds * 1e3 / iters,
              static_cast<double>(session_mib) * iters / seconds,
              static_cast<double>(journal) / (1 << 20));
  vr::RemoveDirRecursive(dir);
  vr::RemoveDirRecursive(exited);
  return true;
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
  for (int multiple : {1, 2, 4}) ok = ok && ExitRecoveryOpen(multiple);
  return ok ? 0 : 1;
}
