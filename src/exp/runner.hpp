// SweepRunner — the first concurrent subsystem in the codebase.
//
// A fixed-size std::thread pool that executes an indexed batch of tasks and
// returns their results IN TASK ORDER. The concurrency model is deliberately
// primitive because it makes the determinism argument airtight:
//
//  * every task builds its own isolated state (its own World, its own
//    registry, its own RNGs) from its task index — zero shared mutable
//    state between tasks, no locks beyond the one claim counter;
//  * task randomness derives from (base_seed, task_index) via splitmix64
//    (spec.hpp: derive_seed), never from thread ids, wall clocks, or claim
//    order;
//  * results land in a pre-sized vector at their task index, so aggregation
//    and export see the same sequence whatever interleaving ran.
//
// Consequence: suite output is byte-identical for --jobs 1 vs --jobs N. The
// only thing parallelism may change is wall-clock time — which is exactly
// why wall time is banned from suite JSON (see aggregate.hpp).
//
// Error model: a throwing task does not tear down the pool; every other
// task still runs, then the first exception (by task index, not by wall
// time — determinism again) is rethrown to the caller.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace sdmbox::exp {

class SweepRunner {
public:
  /// `jobs` = worker threads for each run() call. 0 selects the hardware
  /// concurrency; 1 runs every task inline on the calling thread (the
  /// reference serial order).
  explicit SweepRunner(unsigned jobs);

  unsigned jobs() const noexcept { return jobs_; }

  /// std::thread::hardware_concurrency with a sane floor.
  static unsigned hardware_jobs() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Run task(0) .. task(count-1) across the pool; results returned in task
  /// order. R must be default-constructible and movable. The task callable
  /// must be safe to invoke concurrently from multiple threads for distinct
  /// indices (i.e. it must not share mutable state across indices).
  template <typename R>
  std::vector<R> run(std::size_t count, const std::function<R(std::size_t)>& task) const {
    SDM_CHECK(task != nullptr);
    std::vector<R> results(count);
    dispatch(count, [&](std::size_t i) { results[i] = task(i); });
    return results;
  }

  /// Index-only variant for tasks that write their own outputs.
  void run(std::size_t count, const std::function<void(std::size_t)>& task) const {
    SDM_CHECK(task != nullptr);
    dispatch(count, task);
  }

private:
  /// Claim-by-atomic-counter work loop shared by both run() shapes. Blocks
  /// until all `count` invocations completed (or were skipped after a
  /// failure), then rethrows the lowest-index exception, if any.
  void dispatch(std::size_t count, const std::function<void(std::size_t)>& body) const;

  unsigned jobs_;
};

}  // namespace sdmbox::exp
