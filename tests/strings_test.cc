#include "util/strings.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace bolton {
namespace {

TEST(StrSplitTest, SplitsOnSeparator) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StrSplitTest, KeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StrSplitTest, NoSeparatorYieldsWhole) {
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  x  "), "x");
  EXPECT_EQ(StripWhitespace("\t\r\nx y\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3").value(), -1e-3);
  EXPECT_DOUBLE_EQ(ParseDouble(" 42 ").value(), 42.0);
}

TEST(ParseDoubleTest, RejectsJunk) {
  EXPECT_FALSE(ParseDouble("3.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(ParseIntTest, ParsesValidIntegers) {
  EXPECT_EQ(ParseInt("7").value(), 7);
  EXPECT_EQ(ParseInt("-12").value(), -12);
  EXPECT_EQ(ParseInt(" 0 ").value(), 0);
}

TEST(ParseIntTest, RejectsNonIntegers) {
  EXPECT_FALSE(ParseInt("3.5").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("7x").ok());
}

TEST(ParseIntTest, RangeErrorIsOutOfRange) {
  EXPECT_EQ(ParseInt("99999999999999999999999").status().code(),
            StatusCode::kOutOfRange);
}

TEST(ParseU64Test, CoversTheFullUnsignedRange) {
  EXPECT_EQ(ParseU64("0").value(), 0u);
  EXPECT_EQ(ParseU64(" 42 ").value(), 42u);
  EXPECT_EQ(ParseU64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_EQ(ParseU64("18446744073709551616").status().code(),
            StatusCode::kOutOfRange);
}

TEST(ParseU64Test, RejectsSignsAndJunk) {
  EXPECT_FALSE(ParseU64("-1").ok());
  EXPECT_FALSE(ParseU64(" -1").ok());
  EXPECT_FALSE(ParseU64("").ok());
  EXPECT_FALSE(ParseU64("7x").ok());
  EXPECT_FALSE(ParseU64("1.5").ok());
}

TEST(TokenCodecTest, EmptyAndWhitespaceBecomeSingleTokens) {
  EXPECT_EQ(EncodeToken(""), "-");
  EXPECT_EQ(DecodeToken("-"), "");
  EXPECT_EQ(EncodeToken("bolton.sensitivity"), "bolton.sensitivity");
  EXPECT_EQ(DecodeToken("bolton.sensitivity"), "bolton.sensitivity");
  EXPECT_EQ(EncodeToken("a b\tc\nd"), "a_b_c_d");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-flag", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace bolton
