/// \file mutex.h
/// \brief Annotated exclusive mutex, RAII guard and condition variable.
///
/// std::mutex / std::lock_guard / std::condition_variable carry no
/// thread-safety attributes on libstdc++, so Clang's analysis cannot
/// see acquisitions made through them — every `GUARDED_BY` member
/// would warn at correctly-locked call sites. These thin wrappers
/// (zero-cost: each is exactly the std type plus attributes) make the
/// lock flow visible to the analysis:
///
///   vr::Mutex mu_;
///   int value_ GUARDED_BY(mu_);
///   void Bump() { MutexLock lock(mu_); ++value_; }   // verified
///
/// Condition waits use `CondVar` (a std::condition_variable_any over
/// vr::Mutex). Write predicate waits as explicit loops in the locked
/// scope — a predicate lambda would be analyzed as a separate function
/// that does not inherit the caller's lock set:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
///
/// The reader/writer counterpart is vr::SharedMutex
/// (util/shared_mutex.h) with ReaderMutexLock / WriterMutexLock.

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/lock_order.h"
#include "util/thread_annotations.h"

namespace vr {

/// \brief std::mutex as an annotated capability (BasicLockable, so
/// std::unique_lock<vr::Mutex> and std::condition_variable_any work —
/// but prefer MutexLock/CondVar, which the analysis understands).
///
/// Pass a LockLevel (and a diagnostic name) to rank the mutex in the
/// documented lock hierarchy; ranked acquisitions are verified by the
/// runtime lock-order validator (util/lock_order.h, vr-lint rule R3).
/// Long-lived locks in src/ must be ranked; only scope-local scratch
/// locks may stay kUnranked.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockLevel level, const char* name = "mutex")
      : level_(level), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    // Validate (and abort) *before* blocking: reporting the ordering
    // violation beats deadlocking on it.
    lock_order::NoteAcquire(level_, name_);
    inner_.lock();
  }
  void unlock() RELEASE() {
    // Copy the level first: once inner_ is released, a waiter may
    // acquire it, return and destroy a scope-local mutex (a latch on
    // its stack) before this thread reads any member again.
    const LockLevel level = level_;
    inner_.unlock();
    lock_order::NoteRelease(level);
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!inner_.try_lock()) return false;
    lock_order::NoteAcquire(level_, name_);
    return true;
  }

 private:
  std::mutex inner_;
  const LockLevel level_ = LockLevel::kUnranked;
  const char* const name_ = "mutex";
};

/// \brief RAII exclusive hold of a vr::Mutex for one scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable over vr::Mutex.
///
/// Wait atomically releases and reacquires the mutex; to the caller
/// (and the analysis) the capability is held continuously across the
/// call, which is exactly the condition-variable contract.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible — always wait in
  /// a predicate loop). \p mu must be the mutex guarding the predicate
  /// state and must be held.
  void Wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    // The release/reacquire happens inside condition_variable_any's
    // wait, which the analysis cannot see — hence the local opt-out;
    // the REQUIRES contract above is still enforced at call sites.
    cv_.wait(mu);
  }

  /// Timed Wait: blocks until notified or \p timeout elapses. Returns
  /// false on timeout. Same predicate-loop discipline as Wait applies —
  /// re-check the condition after every return.
  bool WaitFor(Mutex& mu, std::chrono::milliseconds timeout) REQUIRES(mu)
      NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace vr
