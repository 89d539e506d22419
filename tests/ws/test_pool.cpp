#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "blockwise.hpp"
#include "ws/pool.hpp"

namespace {

using picprk::ws::PoolStats;
using picprk::ws::WorkStealingPool;
using picprk::ws::testing::blockwise_owners;

TEST(PoolTest, EveryTaskRunsExactlyOnce) {
  WorkStealingPool pool(2);
  std::vector<std::atomic<int>> executed(100);
  const auto owners = blockwise_owners(100, pool.workers());
  const PoolStats stats = pool.run_placed(100, owners, [&](std::size_t t, int) {
    executed[t].fetch_add(1);
  });
  EXPECT_EQ(stats.tasks, 100u);
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
}

TEST(PoolTest, ZeroTasksIsNoop) {
  WorkStealingPool pool(2);
  const auto owners = blockwise_owners(0, pool.workers());
  const PoolStats stats = pool.run_placed(0, owners, [](std::size_t, int) { FAIL(); });
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(PoolTest, SingleWorkerRunsInline) {
  WorkStealingPool pool(1);
  int count = 0;
  const auto owners = blockwise_owners(10, pool.workers());
  const PoolStats stats = pool.run_placed(10, owners, [&](std::size_t, int w) {
    EXPECT_EQ(w, 0);
    ++count;
  });
  EXPECT_EQ(count, 10);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.executed_per_worker[0], 10u);
}

TEST(PoolTest, StealingBalancesSkewedTaskCosts) {
  // First half of the tasks is 50x more expensive; the second worker
  // must steal some of them.
  WorkStealingPool pool(2);
  const auto owners = blockwise_owners(40, pool.workers());
  const PoolStats stats = pool.run_placed(40, owners, [&](std::size_t t, int) {
    const int spins = t < 20 ? 200000 : 4000;
    volatile double x = 1.0;
    for (int i = 0; i < spins; ++i) x = x * 1.0000001;
    (void)x;
  });
  EXPECT_GT(stats.steals, 0u);
  // Both workers executed something.
  EXPECT_GT(stats.executed_per_worker[0], 0u);
  EXPECT_GT(stats.executed_per_worker[1], 0u);
}

TEST(PoolTest, StaticScheduleNeverSteals) {
  WorkStealingPool pool(2);
  const PoolStats stats = pool.run_placed(
      40, blockwise_owners(40, pool.workers()),
      [&](std::size_t t, int) {
        volatile double x = 1.0;
        for (int i = 0; i < (t < 20 ? 100000 : 1000); ++i) x = x * 1.0000001;
        (void)x;
      },
      /*allow_steal=*/false);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.executed_per_worker[0], 20u);
  EXPECT_EQ(stats.executed_per_worker[1], 20u);
}

TEST(PoolTest, TaskExceptionPropagates) {
  WorkStealingPool pool(2);
  EXPECT_THROW(pool.run_placed(10, blockwise_owners(10, pool.workers()),
                               [](std::size_t t, int) {
                                 if (t == 3) throw std::runtime_error("task boom");
                               }),
               std::runtime_error);
}

TEST(PoolTest, WorkerIndexInRange) {
  WorkStealingPool pool(3);
  std::atomic<bool> ok{true};
  const auto owners = blockwise_owners(60, pool.workers());
  pool.run_placed(60, owners, [&](std::size_t, int w) {
    if (w < 0 || w >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(PoolTest, ManyTasksComplete) {
  WorkStealingPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  const auto owners = blockwise_owners(5000, pool.workers());
  const PoolStats stats = pool.run_placed(5000, owners, [&](std::size_t t, int) {
    sum.fetch_add(t, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 5000ull * 4999 / 2);
  std::uint64_t executed = 0;
  for (auto e : stats.executed_per_worker) executed += e;
  EXPECT_EQ(executed, 5000u);
}

}  // namespace
