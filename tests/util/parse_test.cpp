#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

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

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x:", ':'), (std::vector<std::string>{"x", ""}));
}

TEST(SpecIntegerTest, ReadsDigitsUpToTheFieldWidth) {
  EXPECT_EQ(spec_integer("qos spec", "epoch", "512"), 512u);
  EXPECT_EQ(spec_integer("qos spec", "shares", "4294967295", 4294967295u),
            4294967295u);
  EXPECT_THROW(spec_integer("qos spec", "shares", "4294967296", 4294967295u),
               std::invalid_argument);
  for (const char* bad : {"-1", "+3", " 7", "7 ", "", "1.0", "abc"}) {
    try {
      spec_integer("fault spec", "seed", bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("fault spec: bad integer '") + bad +
                    "' for 'seed'");
    }
  }
}

TEST(SpecNumberTest, ReadsTheWholeText) {
  EXPECT_DOUBLE_EQ(spec_number("qos spec", "window", "0.05"), 0.05);
  for (const char* bad : {"", "abc", "1.5x", "1,5"}) {
    try {
      spec_number("qos spec", "window", bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("qos spec: bad number '") + bad +
                    "' for 'window'");
    }
  }
}

TEST(ReadKnobTest, UnsetAndEmptyAreAbsentAndAFailedParseNamesTheKnob) {
  const auto twice = [](const std::string& value) {
    const std::optional<std::uint64_t> v = parse_decimal_u64(value);
    if (!v) throw std::invalid_argument("malformed integer '" + value + "'");
    return 2 * *v;
  };
  ::unsetenv("FLO_TEST_KNOB");
  EXPECT_EQ(read_knob("FLO_TEST_KNOB", twice), std::nullopt);
  ::setenv("FLO_TEST_KNOB", "", 1);
  EXPECT_EQ(read_knob("FLO_TEST_KNOB", twice), std::nullopt);
  ::setenv("FLO_TEST_KNOB", "21", 1);
  EXPECT_EQ(read_knob("FLO_TEST_KNOB", twice), 42u);
  ::setenv("FLO_TEST_KNOB", "2l", 1);
  try {
    read_knob("FLO_TEST_KNOB", twice);
    ADD_FAILURE() << "accepted '2l'";
  } catch (const KnobError& e) {
    EXPECT_EQ(std::string(e.what()), "FLO_TEST_KNOB: malformed integer '2l'");
  }
  ::unsetenv("FLO_TEST_KNOB");
}

}  // namespace
}  // namespace flo::util
