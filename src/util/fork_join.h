/// \file fork_join.h
/// \brief Caller-participating fork-join over a ThreadPool, and the
/// core budget that decides whether a caller may fork at all.
///
/// ForkJoin runs a fixed set of independent units. The caller claims
/// units through one atomic index, and so does every helper task it
/// offers to the pool. The caller therefore never waits on a unit no
/// thread has started: when the index runs out it waits only for units
/// a helper already claimed and is running. A helper task that a busy
/// pool starts late finds the index exhausted and returns without
/// touching the caller's state. So a fork costs the caller at most its
/// own serial run, whatever the pool is doing.
///
/// CoreBudget counts the threads busy in forked work, callers and
/// helpers alike. A caller asks for a helper only while that count is
/// below the core count, so a machine whose cores are all busy with
/// callers runs every unit serially on its caller.
///
/// Thread-safety: ForkJoin may be called from any number of threads at
/// once; CoreBudget is lock-free and safe from any thread.

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

#include "util/thread_pool.h"

namespace vr {

/// \brief Counts the threads running forked work against a core count.
class CoreBudget {
 public:
  explicit CoreBudget(size_t cores) : cores_(cores) {}
  CoreBudget(const CoreBudget&) = delete;
  CoreBudget& operator=(const CoreBudget&) = delete;

  /// \brief Counts the calling thread as running for its lifetime.
  class Hold {
   public:
    explicit Hold(CoreBudget& budget) : budget_(budget) {
      budget_.running_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Hold() { budget_.Release(); }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    CoreBudget& budget_;
  };

  /// Counts one more thread when fewer than cores() are running;
  /// false (and nothing counted) otherwise. Release() undoes it.
  bool TryReserve() {
    size_t running = running_.load(std::memory_order_relaxed);
    while (running < cores_) {
      if (running_.compare_exchange_weak(running, running + 1,
                                         std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Uncounts one thread (a finished Hold or TryReserve).
  void Release() { running_.fetch_sub(1, std::memory_order_relaxed); }

  size_t cores() const { return cores_; }
  /// Threads counted right now. Advisory: others may change it at once.
  size_t running() const { return running_.load(std::memory_order_relaxed); }

 private:
  const size_t cores_;
  std::atomic<size_t> running_{0};
};

/// Where a fork finds its helpers. The default runs every unit on the
/// caller.
struct ForkHelpers {
  /// Pool the helper tasks go to; null means no helpers.
  ThreadPool* pool = nullptr;
  /// Helper tasks to offer (lanes 1..count).
  size_t count = 0;
  /// When set, each helper first reserves a core here, and its task
  /// releases it as its last action; a helper the budget refuses is not
  /// offered. Must outlive the pool's workers.
  CoreBudget* budget = nullptr;
};

/// Runs fn(unit, lane) once for every unit in [0, units) and returns
/// when all have finished. The caller runs as lane 0; helper tasks
/// offered to helpers.pool run as lanes 1..helpers.count. Units are
/// claimed in index order, so with no helper they run in index order on
/// the caller. A helper the pool or the budget refuses is simply not
/// there. \p fn must not throw; everything it writes is visible to the
/// caller on return. Returns the number of helper tasks the pool
/// accepted.
size_t ForkJoin(const ForkHelpers& helpers, size_t units,
                const std::function<void(size_t unit, size_t lane)>& fn);

}  // namespace vr
