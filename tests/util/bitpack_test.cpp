#include "util/bitpack.h"

#include <gtest/gtest.h>

namespace uesr::util {
namespace {

TEST(BitsForValue, SmallValues) {
  EXPECT_EQ(bits_for_value(0), 1);
  EXPECT_EQ(bits_for_value(1), 1);
  EXPECT_EQ(bits_for_value(2), 2);
  EXPECT_EQ(bits_for_value(3), 2);
  EXPECT_EQ(bits_for_value(4), 3);
  EXPECT_EQ(bits_for_value(255), 8);
  EXPECT_EQ(bits_for_value(256), 9);
}

TEST(BitsForValue, Huge) {
  EXPECT_EQ(bits_for_value(~0ULL), 64);
}

TEST(BitsForCount, Conventions) {
  EXPECT_EQ(bits_for_count(0), 0);
  EXPECT_EQ(bits_for_count(1), 0);
  EXPECT_EQ(bits_for_count(2), 1);
  EXPECT_EQ(bits_for_count(3), 2);
  EXPECT_EQ(bits_for_count(4), 2);
  EXPECT_EQ(bits_for_count(5), 3);
  EXPECT_EQ(bits_for_count(1ULL << 32), 32);
}

TEST(CeilLog2, Values) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_THROW(ceil_log2(0), std::invalid_argument);
}

TEST(FloorLog2, Values) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_THROW(floor_log2(0), std::invalid_argument);
}

TEST(BitMath, CeilFloorRelation) {
  for (std::uint64_t v = 1; v < 4096; ++v) {
    EXPECT_LE(floor_log2(v), ceil_log2(v));
    EXPECT_LE(ceil_log2(v) - floor_log2(v), 1);
    bool pow2 = (v & (v - 1)) == 0;
    EXPECT_EQ(floor_log2(v) == ceil_log2(v), pow2) << v;
  }
}

}  // namespace
}  // namespace uesr::util
