#include "mcs/util/math.hpp"

#include <gtest/gtest.h>

#include <array>

#include "mcs/util/time.hpp"

namespace mcs::util {
namespace {

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(5, 5), 1);
  EXPECT_EQ(ceil_div(6, 5), 2);
  EXPECT_EQ(ceil_div(-3, 5), 0);  // clamped: analyses use non-negative loads
  EXPECT_THROW((void)ceil_div(1, 0), std::invalid_argument);
  EXPECT_THROW((void)ceil_div(1, -2), std::invalid_argument);
}

TEST(Math, FloorMod) {
  EXPECT_EQ(floor_mod(7, 5), 2);
  EXPECT_EQ(floor_mod(-7, 5), 3);
  EXPECT_EQ(floor_mod(0, 5), 0);
  EXPECT_EQ(floor_mod(-5, 5), 0);
  EXPECT_THROW((void)floor_mod(1, 0), std::invalid_argument);
}

TEST(Math, Lcm) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(7, 13), 91);
  EXPECT_EQ(lcm64(10, 10), 10);
  EXPECT_THROW((void)lcm64(0, 3), std::invalid_argument);
  EXPECT_THROW((void)lcm64(-4, 3), std::invalid_argument);
  EXPECT_THROW((void)lcm64(kTimeInfinity - 1, kTimeInfinity - 2), std::overflow_error);
}

TEST(Math, HyperPeriod) {
  const std::array<Time, 3> periods{10, 20, 30};
  EXPECT_EQ(hyper_period(periods), 60);
  const std::array<Time, 1> single{240};
  EXPECT_EQ(hyper_period(single), 240);
  EXPECT_THROW((void)hyper_period(std::span<const Time>{}), std::invalid_argument);
}

TEST(Math, SatMul) {
  EXPECT_EQ(sat_mul(2, 3), 6);
  EXPECT_EQ(sat_mul(0, kTimeInfinity), 0);
  EXPECT_EQ(sat_mul(kTimeInfinity, 3), kTimeInfinity);
  EXPECT_EQ(sat_mul(4, kTimeInfinity - 1), kTimeInfinity);
  EXPECT_EQ(sat_mul(4, kTimeInfinity / 5), 4 * (kTimeInfinity / 5));
}

TEST(Math, SatAdd) {
  EXPECT_EQ(sat_add(2, 3), 5);
  EXPECT_EQ(sat_add(kTimeInfinity, 3), kTimeInfinity);
  EXPECT_EQ(sat_add(kTimeInfinity - 1, kTimeInfinity - 1), kTimeInfinity);
  EXPECT_TRUE(is_finite(1000));
  EXPECT_FALSE(is_finite(kTimeInfinity));
}

}  // namespace
}  // namespace mcs::util
