/// \file fork_join_test.cc
/// \brief ForkJoin and CoreBudget: every unit runs exactly once, the
/// caller never waits on a helper the pool has not started, and the
/// budget refuses helpers at capacity and gets every core back.
/// scripts/check_tsan.sh runs this suite.

#include "util/fork_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace vr {
namespace {

ThreadPoolOptions Threads(size_t n, size_t queue = 8) {
  ThreadPoolOptions options;
  options.num_threads = n;
  options.queue_capacity = queue;
  return options;
}

TEST(ForkJoinTest, WithoutHelpersRunsUnitsInOrderOnTheCaller) {
  std::vector<size_t> order;
  std::vector<size_t> lanes;
  const size_t accepted =
      ForkJoin(ForkHelpers{}, 5, [&](size_t unit, size_t lane) {
        order.push_back(unit);
        lanes.push_back(lane);
      });
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(lanes, std::vector<size_t>(5, 0));
}

TEST(ForkJoinTest, CallerAndHelpersRunEveryUnitOnce) {
  ThreadPool pool(Threads(3, /*queue=*/64));
  ForkHelpers helpers;
  helpers.pool = &pool;
  helpers.count = 3;
  for (int round = 0; round < 20; ++round) {
    constexpr size_t kUnits = 64;
    std::vector<std::atomic<int>> runs(kUnits);
    std::atomic<size_t> max_lane{0};
    const size_t accepted = ForkJoin(helpers, kUnits, [&](size_t unit,
                                                          size_t lane) {
      runs[unit].fetch_add(1);
      size_t seen = max_lane.load();
      while (lane > seen && !max_lane.compare_exchange_weak(seen, lane)) {
      }
    });
    EXPECT_LE(accepted, 3u);
    EXPECT_LE(max_lane.load(), accepted);
    for (size_t u = 0; u < kUnits; ++u) EXPECT_EQ(runs[u].load(), 1) << u;
  }
}

TEST(ForkJoinTest, WritesOfHelperUnitsAreVisibleOnReturn) {
  ThreadPool pool(Threads(1));
  ForkHelpers helpers;
  helpers.pool = &pool;
  helpers.count = 1;
  // Plain (non-atomic) slots: TSan flags a missing happens-before edge
  // between a helper's write and the caller's read.
  std::vector<size_t> slots(16, 0);
  ForkJoin(helpers, slots.size(),
           [&](size_t unit, size_t) { slots[unit] = unit + 1; });
  for (size_t u = 0; u < slots.size(); ++u) EXPECT_EQ(slots[u], u + 1);
}

TEST(ForkJoinTest, CallerNeverWaitsOnAHelperThePoolHasNotStarted) {
  ThreadPool pool(Threads(1));
  // Park the only worker, so the helper task sits in the queue.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ASSERT_TRUE(pool.TrySubmit([gate] { gate.wait(); }));
  CoreBudget budget(4);
  ForkHelpers helpers;
  helpers.pool = &pool;
  helpers.count = 1;
  helpers.budget = &budget;
  std::vector<size_t> lanes(8, 99);
  const size_t accepted = ForkJoin(
      helpers, lanes.size(), [&](size_t unit, size_t lane) { lanes[unit] = lane; });
  // The helper was queued and holds its core until it runs.
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(budget.running(), 1u);
  EXPECT_EQ(lanes, std::vector<size_t>(8, 0));
  // Started late, the helper finds nothing to claim and gives its core
  // back.
  release.set_value();
  pool.Drain();
  EXPECT_EQ(budget.running(), 0u);
}

TEST(ForkJoinTest, BudgetAtCapacityOffersNoHelper) {
  ThreadPool pool(Threads(2));
  CoreBudget budget(2);
  CoreBudget::Hold first(budget);
  CoreBudget::Hold second(budget);
  ForkHelpers helpers;
  helpers.pool = &pool;
  helpers.count = 2;
  helpers.budget = &budget;
  std::atomic<size_t> helper_units{0};
  const size_t accepted = ForkJoin(helpers, 16, [&](size_t, size_t lane) {
    if (lane != 0) helper_units.fetch_add(1);
  });
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(helper_units.load(), 0u);
  EXPECT_EQ(budget.running(), 2u);
}

TEST(ForkJoinTest, BudgetGrantsOnlyTheSpareCores) {
  ThreadPool pool(Threads(3));
  CoreBudget budget(3);
  CoreBudget::Hold caller(budget);
  ForkHelpers helpers;
  helpers.pool = &pool;
  helpers.count = 3;
  helpers.budget = &budget;
  // A helper holds its unit until the caller runs one, so no helper can
  // finish and give its core back while helpers are still offered.
  std::atomic<bool> caller_ran{false};
  const size_t accepted = ForkJoin(helpers, 16, [&](size_t, size_t lane) {
    if (lane == 0) caller_ran.store(true);
    while (!caller_ran.load()) std::this_thread::yield();
  });
  EXPECT_EQ(accepted, 2u);  // 3 cores, one of them the caller's
  pool.Drain();
  EXPECT_EQ(budget.running(), 1u);  // only the caller's Hold is left
}

TEST(ForkJoinTest, RejectedHelperReturnsItsCore) {
  ThreadPool pool(Threads(1, /*queue=*/1));
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ASSERT_TRUE(pool.TrySubmit([gate] { gate.wait(); }));
  // Once the worker has taken the parked task, fill the one queue slot.
  while (pool.QueueDepth() != 0) std::this_thread::yield();
  ASSERT_TRUE(pool.TrySubmit([] {}));
  CoreBudget budget(4);
  ForkHelpers helpers;
  helpers.pool = &pool;
  helpers.count = 1;
  helpers.budget = &budget;
  size_t units = 0;
  EXPECT_EQ(ForkJoin(helpers, 4, [&](size_t, size_t) { ++units; }), 0u);
  EXPECT_EQ(units, 4u);
  EXPECT_EQ(budget.running(), 0u);
  release.set_value();
  pool.Drain();
}

}  // namespace
}  // namespace vr
