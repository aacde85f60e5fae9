// The whole-number parser every CLI shares (util/args.h).
#include "util/args.h"

#include <gtest/gtest.h>

namespace tetris::util {
namespace {

TEST(Args, ParseWholeTakesDigitsOnly) {
  EXPECT_EQ(parse_whole("0"), 0u);
  EXPECT_EQ(parse_whole("007"), 7u);
  EXPECT_EQ(parse_whole("18446744073709551615"), UINT64_MAX);
  for (const char* junk : {"", "10x", "7z", " 7", "7 ", "+7", "-7", "0x10",
                           "1e3", "18446744073709551616"})
    EXPECT_FALSE(parse_whole(junk)) << '"' << junk << '"';
  EXPECT_EQ(parse_whole("4", 1, 4), 4u);
  EXPECT_FALSE(parse_whole("5", 1, 4));
  EXPECT_FALSE(parse_whole("0", 1, 4));
}

TEST(Args, ParseCountIsAWholeNumberFromOneToIntMax) {
  EXPECT_EQ(parse_count("1"), 1);
  EXPECT_EQ(parse_count("2147483647"), INT_MAX);
  for (const char* bad : {"0", "-1", "2147483648", "10x"})
    EXPECT_FALSE(parse_count(bad)) << '"' << bad << '"';
}

}  // namespace
}  // namespace tetris::util
