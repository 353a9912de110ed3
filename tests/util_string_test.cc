#include "util/string_util.h"

#include <gtest/gtest.h>

namespace atypical {
namespace {

TEST(StrPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StrPrintf("x=%d y=%.2f s=%s", 3, 1.5, "ab"), "x=3 y=1.50 s=ab");
  EXPECT_EQ(StrPrintf("empty"), "empty");
  EXPECT_EQ(StrPrintf("%s", ""), "");
}

TEST(StrPrintfTest, LongOutput) {
  const std::string big(500, 'z');
  EXPECT_EQ(StrPrintf("%s!", big.c_str()), big + "!");
}

TEST(StrSplitTest, SplitsAndKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(SplitJoinTest, RoundTrip) {
  const std::string text = "q,w,e,r";
  EXPECT_EQ(StrJoin(StrSplit(text, ','), ","), text);
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("atypical", "aty"));
  EXPECT_FALSE(StartsWith("aty", "atypical"));
  EXPECT_TRUE(EndsWith("data.csv", ".csv"));
  EXPECT_FALSE(EndsWith("data.csv", ".bin"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(HumanBytesTest, ScalesUnits) {
  EXPECT_EQ(HumanBytes(0), "0 B");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(uint64_t{3} * 1024 * 1024), "3.0 MB");
  EXPECT_EQ(HumanBytes(uint64_t{5} * 1024 * 1024 * 1024), "5.0 GB");
}

TEST(ClockLabelTest, FormatsPaperStyleTimes) {
  EXPECT_EQ(ClockLabel(8 * 60 + 5), "8:05am");
  EXPECT_EQ(ClockLabel(18 * 60 + 20), "6:20pm");
  EXPECT_EQ(ClockLabel(0), "12:00am");
  EXPECT_EQ(ClockLabel(12 * 60), "12:00pm");
  EXPECT_EQ(ClockLabel(23 * 60 + 59), "11:59pm");
}

TEST(ClockLabelTest, WrapsAcrossDays) {
  EXPECT_EQ(ClockLabel(1440 + 60), "1:00am");
  EXPECT_EQ(ClockLabel(-60), "11:00pm");
}

TEST(ParseInt64Test, ParsesDigitsOnly) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("12345"), 12345);
  EXPECT_EQ(ParseInt64(""), -1);
  EXPECT_EQ(ParseInt64("12a"), -1);
  EXPECT_EQ(ParseInt64("-5"), -1);
  EXPECT_EQ(ParseInt64("1.5"), -1);
}

TEST(ParseInt64Test, RejectsValuesPastInt64Max) {
  EXPECT_EQ(ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInt64("9223372036854775808"), -1);
  EXPECT_EQ(ParseInt64("99999999999999999999"), -1);
  EXPECT_EQ(ParseInt64("000000000000000000000042"), 42);
}

TEST(ParseDoubleTest, ParsesOrFallsBack) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5", -1.0), 1.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2", -1.0), -2.0);
  EXPECT_DOUBLE_EQ(ParseDouble("", 9.0), 9.0);
  EXPECT_DOUBLE_EQ(ParseDouble("abc", 9.0), 9.0);
  EXPECT_DOUBLE_EQ(ParseDouble("1.5x", 9.0), 9.0);
}

}  // namespace
}  // namespace atypical
