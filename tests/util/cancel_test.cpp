// CancelToken semantics the suite driver depends on: a token fires when
// its stop flag is up or its deadline has passed, the stop flag wins, and
// throw_if_cancelled() carries the reason into CancelledError.
#include "mcs/util/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

namespace mcs::util {
namespace {

using Clock = CancelToken::Clock;

CancelReason reason_of(const CancelToken& token) {
  try {
    token.throw_if_cancelled();
  } catch (const CancelledError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "expected CancelledError";
  return CancelReason::Deadline;
}

TEST(CancelToken, StartsUncancelled) {
  EXPECT_NO_THROW(CancelToken(std::nullopt, nullptr).throw_if_cancelled());
  const std::atomic<bool> stop{false};
  EXPECT_NO_THROW(CancelToken(std::nullopt, &stop).throw_if_cancelled());
  const CancelToken far(Clock::now() + std::chrono::hours(1), &stop);
  EXPECT_NO_THROW(far.throw_if_cancelled());
}

TEST(CancelToken, ThrowIfCancelledCarriesReasonAndMessage) {
  const CancelToken deadline(Clock::now() - std::chrono::milliseconds(1), nullptr);
  try {
    deadline.throw_if_cancelled();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::Deadline);
    EXPECT_STREQ(e.what(), "cancelled: wall-clock deadline exceeded");
  }

  const std::atomic<bool> stop{true};
  const CancelToken shutdown(std::nullopt, &stop);
  try {
    shutdown.throw_if_cancelled();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::Shutdown);
    EXPECT_STREQ(e.what(), "cancelled: shutdown requested");
  }
}

// A token reads the flag at every poll: raising it after the token was
// built cancels the next poll.
TEST(CancelToken, SeesAStopFlagRaisedAfterConstruction) {
  std::atomic<bool> stop{false};
  const CancelToken token(std::nullopt, &stop);
  EXPECT_NO_THROW(token.throw_if_cancelled());
  stop.store(true);
  EXPECT_EQ(reason_of(token), CancelReason::Shutdown);
}

// A draining run leaves the job pending rather than timed out, so the
// stop flag wins over a deadline that has passed as well.
TEST(CancelToken, StopFlagWinsOverAnExpiredDeadline) {
  const std::atomic<bool> stop{true};
  const CancelToken token(Clock::now() - std::chrono::milliseconds(1), &stop);
  EXPECT_EQ(reason_of(token), CancelReason::Shutdown);
}

}  // namespace
}  // namespace mcs::util
