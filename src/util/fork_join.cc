#include "util/fork_join.h"

#include <memory>

#include "util/mutex.h"

namespace vr {

namespace {

/// One fork's claim index and completion latch. Helper tasks share it
/// through a shared_ptr, so a task the pool starts after the caller
/// returned still finds it alive (and the index exhausted).
struct ForkState {
  ForkState(size_t units, const std::function<void(size_t, size_t)>* fn)
      : units(units), fn(fn) {}

  /// Claims and runs units until none is left.
  void RunLane(size_t lane) {
    for (size_t unit = next.fetch_add(1, std::memory_order_relaxed);
         unit < units; unit = next.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(unit, lane);
      MutexLock lock(mutex);
      if (++done == units) all_done.NotifyAll();
    }
  }

  const size_t units;
  /// Dereferenced only for a claimed unit, and the caller does not
  /// return before every claimed unit is done.
  const std::function<void(size_t, size_t)>* const fn;
  std::atomic<size_t> next{0};
  Mutex mutex{LockLevel::kLeaf, "fork_join"};
  CondVar all_done;
  size_t done GUARDED_BY(mutex) = 0;
};

}  // namespace

size_t ForkJoin(const ForkHelpers& helpers, size_t units,
                const std::function<void(size_t unit, size_t lane)>& fn) {
  if (helpers.pool == nullptr || helpers.count == 0 || units <= 1) {
    for (size_t unit = 0; unit < units; ++unit) fn(unit, 0);
    return 0;
  }
  auto state = std::make_shared<ForkState>(units, &fn);
  size_t accepted = 0;
  CoreBudget* budget = helpers.budget;
  // A helper beyond units - 1 could never claim anything.
  for (size_t lane = 1; lane <= helpers.count && lane < units; ++lane) {
    if (budget != nullptr && !budget->TryReserve()) break;
    const bool submitted = helpers.pool->TrySubmit([state, lane, budget] {
      state->RunLane(lane);
      if (budget != nullptr) budget->Release();
    });
    if (!submitted) {
      if (budget != nullptr) budget->Release();
      break;
    }
    ++accepted;
  }
  state->RunLane(0);
  MutexLock lock(state->mutex);
  while (state->done != units) state->all_done.Wait(state->mutex);
  return accepted;
}

}  // namespace vr
