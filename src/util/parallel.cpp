#include "mcs/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mcs::util {

void parallel_for(std::size_t workers, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  // Each body invocation is caught individually so a throw never abandons
  // the unclaimed remainder — all indices run, and the error reported is
  // index-deterministic, not schedule-dependent.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = SIZE_MAX;
  std::exception_ptr error;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  const std::size_t threads = std::min(workers, count);
  if (threads <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(drain);
    for (std::thread& thread : pool) thread.join();
  }
  if (error) std::rethrow_exception(error);
}

std::size_t default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace mcs::util
