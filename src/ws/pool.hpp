// A work-stealing task pool: the shared-memory counterpart of the
// paper's dynamic-load-balancing study (§VI names task-based runtimes —
// Charm++, HPX, X10 — as future comparison targets; this module provides
// the minimal such runtime, on which the svc job server schedules kernel
// jobs by dynamic scheduling instead of ownership migration).
//
// Tasks are indices [0, count). By default they are dealt blockwise to
// the workers' deques (preserving spatial locality of adjacent tasks);
// run_placed() instead takes an explicit initial-owner map — the hook
// the svc job server uses to apply a cross-job lb:: placement before
// stealing smooths the residue. Each worker pops from the back of its
// own deque and steals from the front of a random victim when empty —
// the classic owner-LIFO/thief-FIFO policy.
//
// The pool is a long-lived, multi-client resource (docs/SERVICE.md):
// worker threads are spawned once at construction and parked between
// run() calls, every run() leaves the deques drained — including runs
// that end in a task exception — and per-run statistics start from
// zero, so a second client attaching after another drains sees exactly
// the pool a fresh construction would give it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "obs/phase.hpp"

namespace picprk::ws {

struct PoolStats {
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;  ///< tasks executed by a non-initial owner
  std::vector<std::uint64_t> executed_per_worker;
  /// Steals per thief: which workers ran out of local work and raided.
  /// steals is the sum of this vector.
  std::vector<std::uint64_t> steals_per_worker;
};

class WorkStealingPool {
 public:
  /// Spawns the (persistent) worker threads. `hooks` (optional) attaches
  /// the pool to an obs registry/trace: the pool registers its
  /// task/steal counters and one trace lane per worker at construction,
  /// before any task runs.
  explicit WorkStealingPool(int workers, const obs::Hooks& hooks = {});
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  int workers() const { return workers_; }

  /// Runs fn(task, worker) for every task in [0, count) exactly once;
  /// blocks until all complete. Tasks are dealt blockwise (task t
  /// initially owned by worker t·W/count). Exceptions from tasks
  /// propagate (first one wins); the pool drains and stays reusable.
  /// When `allow_steal` is false the pool degrades to a static
  /// blockwise schedule — the baseline the stealing is measured
  /// against.
  PoolStats run(std::size_t count, const std::function<void(std::size_t, int)>& fn,
                bool allow_steal = true);

  /// Like run(), but task t is initially dealt to worker owners[t] — an
  /// externally decided placement (e.g. an lb::Strategy plan over jobs
  /// as super-VPs). owners.size() must equal count and every entry must
  /// be a valid worker id. With allow_steal=false the placement is
  /// executed verbatim; with stealing, idle workers may still raid.
  PoolStats run_placed(std::size_t count, std::span<const int> owners,
                       const std::function<void(std::size_t, int)>& fn,
                       bool allow_steal = true);

 private:
  struct Shared;  ///< persistent threads + dispatch state (pool.cpp)

  int workers_;
  std::unique_ptr<Shared> shared_;
  // Telemetry handles (null when constructed without hooks).
  std::vector<obs::TraceLane*> worker_lanes_;
  obs::Counter* tasks_counter_ = nullptr;
  obs::Counter* steals_counter_ = nullptr;
  obs::Histogram* run_hist_ = nullptr;
  /// Steal count of each run/run_placed batch — the per-dispatch
  /// distribution, next to the pool-lifetime ws/steals aggregate.
  obs::Histogram* steals_per_run_hist_ = nullptr;
};

}  // namespace picprk::ws
