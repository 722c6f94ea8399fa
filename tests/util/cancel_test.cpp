// CancelToken semantics the job runtime depends on: one-shot first-cancel-
// wins, and throw_if_cancelled() carrying the reason into CancelledError.
#include "mcs/util/cancel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace mcs::util {
namespace {

TEST(CancelToken, StartsUncancelled) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::None);
  EXPECT_NO_THROW(token.throw_if_cancelled());
}

TEST(CancelToken, FirstCancelWins) {
  CancelToken token;
  token.cancel(CancelReason::Deadline);
  token.cancel(CancelReason::Shutdown);  // loses the race, ignored
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::Deadline);
}

TEST(CancelToken, ThrowIfCancelledCarriesReasonAndMessage) {
  CancelToken deadline;
  deadline.cancel(CancelReason::Deadline);
  try {
    deadline.throw_if_cancelled();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::Deadline);
    EXPECT_STREQ(e.what(), "cancelled: wall-clock deadline exceeded");
  }

  CancelToken shutdown;
  shutdown.cancel(CancelReason::Shutdown);
  try {
    shutdown.throw_if_cancelled();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::Shutdown);
    EXPECT_STREQ(e.what(), "cancelled: shutdown requested");
  }
}

// The watchdog cancels from its own thread while the job polls; racing
// cancellers must settle on exactly one of the attempted reasons.
TEST(CancelToken, ConcurrentCancelSettlesOnOneReason) {
  for (int round = 0; round < 50; ++round) {
    CancelToken token;
    std::vector<std::thread> threads;
    threads.emplace_back([&] { token.cancel(CancelReason::Deadline); });
    threads.emplace_back([&] { token.cancel(CancelReason::Shutdown); });
    for (auto& t : threads) t.join();
    const CancelReason reason = token.reason();
    EXPECT_TRUE(reason == CancelReason::Deadline ||
                reason == CancelReason::Shutdown);
  }
}

}  // namespace
}  // namespace mcs::util
