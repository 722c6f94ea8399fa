#include "mcs/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mcs::util {
namespace {

TEST(ParallelFor, ZeroWorkersRunsInline) {
  std::vector<std::thread::id> ran_on;
  parallel_for(0, 3, [&](std::size_t) { ran_on.push_back(std::this_thread::get_id()); });
  ASSERT_EQ(ran_on.size(), 3u);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 4u, 7u}) {
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for(workers, kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << workers
                                   << " workers";
    }
  }
}

TEST(ParallelFor, MoreWorkersThanJobs) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(8, 3, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  parallel_for(2, 0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(parallel_for(4, 64,
                            [](std::size_t i) {
                              if (i == 13) throw std::invalid_argument("13");
                            }),
               std::invalid_argument);
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  // Many bodies throw concurrently; whatever the thread interleaving, the
  // exception that escapes must be the one from the lowest index.  Repeat
  // to give racy schedules a chance to disagree.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(4, 256, [](std::size_t i) {
        if (i % 3 == 1) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "1") << "round " << round;
    }
  }
}

TEST(ParallelFor, RunsAllIndicesDespiteThrows) {
  // A throwing body must not abandon the loop: every index still runs.
  for (const std::size_t workers : {1u, 4u}) {
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<int>> hits(kCount);
    EXPECT_THROW(parallel_for(workers, kCount,
                              [&](std::size_t i) {
                                ++hits[i];
                                if (i % 7 == 0) throw std::runtime_error("x");
                              }),
                 std::runtime_error);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << workers
                                   << " workers";
    }
  }
}

}  // namespace
}  // namespace mcs::util
