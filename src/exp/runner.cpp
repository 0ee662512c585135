#include "exp/runner.hpp"

#include <algorithm>

namespace sdmbox::exp {

SweepRunner::SweepRunner(unsigned jobs) : jobs_(jobs == 0 ? hardware_jobs() : jobs) {}

void SweepRunner::dispatch(std::size_t count, const std::function<void(std::size_t)>& body) const {
  if (count == 0) return;
  // One exception slot per task index: distinct indices, distinct slots, so
  // workers never contend — and "first failure" means first by INDEX, not by
  // completion time, keeping the error surface deterministic too.
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto worker_loop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  const std::size_t workers = std::min<std::size_t>(jobs_, count);
  if (workers <= 1) {
    worker_loop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker_loop);
    for (std::thread& th : pool) th.join();
  }

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace sdmbox::exp
