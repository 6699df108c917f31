#include "util/parse.hpp"

#include <gtest/gtest.h>

namespace flo::util {
namespace {

TEST(ParseDecimalU64Test, AcceptsWholeDigitStrings) {
  EXPECT_EQ(parse_decimal_u64("0"), 0u);
  EXPECT_EQ(parse_decimal_u64("42"), 42u);
  EXPECT_EQ(parse_decimal_u64("007"), 7u);
  EXPECT_EQ(parse_decimal_u64("18446744073709551615"),
            18446744073709551615ull);
}

TEST(ParseDecimalU64Test, RejectsEverythingElse) {
  for (const char* bad : {"", "abc", "3x", "x3", "-1", "-0", "1.5", "1e3",
                          "0x10", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(parse_decimal_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseDecimalU64Test, RejectsSignAndWhitespace) {
  // strtoull skips leading whitespace and takes a leading '+'; this parse
  // takes digits only, so neither is accepted.
  for (const char* bad : {"+5", " 5", "5 ", "\t5", "5\n", "+", " "}) {
    EXPECT_FALSE(parse_decimal_u64(bad).has_value()) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace flo::util
