/// Unit tests for the Env abstraction: the POSIX implementation and
/// the fault-injection test double's durability model.

#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/fault_injection_env.h"

namespace vr {
namespace {

std::string TempPath(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(PosixEnvTest, WriteReadRoundTrip) {
  Env* env = Env::Default();
  const std::string path = TempPath("env_rt.bin");
  {
    auto file = env->Open(path, Env::OpenMode::kTruncate).value();
    ASSERT_TRUE(file->Append("hello", 5).ok());
    ASSERT_TRUE(file->WriteAt(0, "H", 1).ok());
    ASSERT_TRUE(file->Sync().ok());
    EXPECT_EQ(file->Size().value(), 5u);
  }
  auto file = env->Open(path, Env::OpenMode::kMustExist).value();
  char buf[8] = {};
  EXPECT_EQ(file->ReadAt(0, buf, 5).value(), 5u);
  EXPECT_EQ(std::string(buf, 5), "Hello");
  // Reads past EOF are short, not errors.
  EXPECT_EQ(file->ReadAt(4, buf, 8).value(), 1u);
  EXPECT_EQ(file->ReadAt(100, buf, 8).value(), 0u);
}

TEST(PosixEnvTest, MustExistFailsOnMissing) {
  Env* env = Env::Default();
  EXPECT_FALSE(env->Open(TempPath("env_missing.bin"),
                         Env::OpenMode::kMustExist)
                   .ok());
}

TEST(PosixEnvTest, DeleteAndRename) {
  Env* env = Env::Default();
  const std::string a = TempPath("env_a.bin");
  const std::string b = TempPath("env_b.bin");
  { auto f = env->Open(a, Env::OpenMode::kTruncate).value(); }
  EXPECT_TRUE(env->FileExists(a));
  ASSERT_TRUE(env->RenameFile(a, b).ok());
  EXPECT_FALSE(env->FileExists(a));
  EXPECT_TRUE(env->FileExists(b));
  ASSERT_TRUE(env->DeleteFile(b).ok());
  EXPECT_FALSE(env->FileExists(b));
  EXPECT_FALSE(env->DeleteFile(b).ok());
}

TEST(PosixEnvTest, WriteFileAtomicAndReadBack) {
  Env* env = Env::Default();
  const std::string path = TempPath("env_atomic.txt");
  ASSERT_TRUE(env->WriteFileAtomic(path, "payload").ok());
  EXPECT_EQ(env->ReadFileToString(path).value(), "payload");
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
}

TEST(FaultInjectionEnvTest, UnsyncedDataDropsOnPowerCut) {
  FaultInjectionEnv env;
  {
    auto f = env.Open("a", Env::OpenMode::kCreateIfMissing).value();
    ASSERT_TRUE(f->Append("synced", 6).ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Append("-lost", 5).ok());
    EXPECT_EQ(f->Size().value(), 11u);
  }
  {
    auto f = env.Open("never-synced", Env::OpenMode::kCreateIfMissing).value();
    ASSERT_TRUE(f->Append("gone", 4).ok());
  }
  env.DropUnsyncedData();
  EXPECT_FALSE(env.FileExists("never-synced"));
  auto f = env.Open("a", Env::OpenMode::kMustExist).value();
  EXPECT_EQ(f->Size().value(), 6u);
  char buf[16] = {};
  EXPECT_EQ(f->ReadAt(0, buf, 16).value(), 6u);
  EXPECT_EQ(std::string(buf, 6), "synced");
}

TEST(FaultInjectionEnvTest, SnapshotRoundTrip) {
  FaultInjectionEnv env;
  {
    auto f = env.Open("x", Env::OpenMode::kCreateIfMissing).value();
    ASSERT_TRUE(f->Append("durable", 7).ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Append("!!!", 3).ok());  // not synced, not in snapshot
  }
  FaultInjectionEnv::Snapshot snap = env.DurableSnapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap["x"].size(), 7u);

  FaultInjectionEnv restored(std::move(snap));
  auto f = restored.Open("x", Env::OpenMode::kMustExist).value();
  char buf[16] = {};
  EXPECT_EQ(f->ReadAt(0, buf, 16).value(), 7u);
  EXPECT_EQ(std::string(buf, 7), "durable");
}

TEST(FaultInjectionEnvTest, FailNthWriteIsOneShot) {
  FaultInjectionEnv env;
  auto f = env.Open("w", Env::OpenMode::kCreateIfMissing).value();
  env.FailNthWrite(2);
  EXPECT_TRUE(f->Append("a", 1).ok());
  const Status failed = f->Append("b", 1);
  EXPECT_TRUE(failed.IsIOError()) << failed;
  // One-shot: the next write succeeds, and the failed write left no data.
  EXPECT_TRUE(f->Append("c", 1).ok());
  EXPECT_EQ(f->Size().value(), 2u);
}

TEST(FaultInjectionEnvTest, FailNthSyncIsOneShot) {
  FaultInjectionEnv env;
  auto f = env.Open("s", Env::OpenMode::kCreateIfMissing).value();
  ASSERT_TRUE(f->Append("a", 1).ok());
  env.FailNthSync(1);
  EXPECT_TRUE(f->Sync().IsIOError());
  // The failed sync made nothing durable.
  EXPECT_TRUE(env.DurableSnapshot().empty());
  EXPECT_TRUE(f->Sync().ok());
  EXPECT_EQ(env.DurableSnapshot().count("s"), 1u);
}

TEST(FaultInjectionEnvTest, CorruptNthWriteFlipsOneBit) {
  FaultInjectionEnv env;
  auto f = env.Open("c", Env::OpenMode::kCreateIfMissing).value();
  env.CorruptNthWrite(1, /*bit_index=*/9);  // bit 1 of byte 1
  ASSERT_TRUE(f->Append("\x00\x00\x00\x00", 4).ok());
  char buf[4] = {};
  EXPECT_EQ(f->ReadAt(0, buf, 4).value(), 4u);
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[1], 2);  // bit 1 flipped
  EXPECT_EQ(buf[2], 0);
  EXPECT_EQ(buf[3], 0);
}

TEST(FaultInjectionEnvTest, RenameMakesContentsDurable) {
  FaultInjectionEnv env;
  {
    auto f = env.Open("tmp", Env::OpenMode::kCreateIfMissing).value();
    ASSERT_TRUE(f->Append("data", 4).ok());
    // No sync: rename itself journals the contents.
  }
  ASSERT_TRUE(env.RenameFile("tmp", "final").ok());
  env.DropUnsyncedData();
  EXPECT_TRUE(env.FileExists("final"));
  EXPECT_FALSE(env.FileExists("tmp"));
  auto f = env.Open("final", Env::OpenMode::kMustExist).value();
  EXPECT_EQ(f->Size().value(), 4u);
}

TEST(FaultInjectionEnvTest, OpenHandleObservesPowerCut) {
  FaultInjectionEnv env;
  auto f = env.Open("h", Env::OpenMode::kCreateIfMissing).value();
  ASSERT_TRUE(f->Append("keep", 4).ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("-drop", 5).ok());
  env.DropUnsyncedData();
  // The already-open handle sees the reverted bytes.
  EXPECT_EQ(f->Size().value(), 4u);
}

TEST(FaultInjectionEnvTest, SyncObserverFiresOnEverySync) {
  FaultInjectionEnv env;
  int fired = 0;
  env.SetSyncObserver([&](const std::string&) { ++fired; });
  auto f = env.Open("o", Env::OpenMode::kCreateIfMissing).value();
  ASSERT_TRUE(f->Append("x", 1).ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(env.sync_count(), 2u);
}

}  // namespace
}  // namespace vr
