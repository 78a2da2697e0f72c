#include "util/json.h"

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace bolton {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(ParseJson("null").MoveValue().is_null());
  EXPECT_TRUE(ParseJson("true").MoveValue().bool_value());
  EXPECT_FALSE(ParseJson("false").MoveValue().bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("3.25").MoveValue().number_value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("-1e-6").MoveValue().number_value(), -1e-6);
  EXPECT_EQ(ParseJson("\"hi\"").MoveValue().string_value(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  auto value = ParseJson("\"a\\\"b\\\\c\\n\\t\\u0041\"");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value().string_value(), "a\"b\\c\n\tA");
}

TEST(JsonParseTest, UnicodeEscapeBmp) {
  // U+00E9 (é) → two-byte UTF-8.
  auto value = ParseJson("\"caf\\u00e9\"");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value().string_value(), "caf\xc3\xa9");
}

TEST(JsonParseTest, ArraysAndObjects) {
  auto value = ParseJson(R"({"a": [1, 2, 3], "b": {"c": true}, "d": null})");
  ASSERT_TRUE(value.ok());
  const JsonValue& root = value.value();
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array_items()[1].number_value(), 2.0);
  const JsonValue* b = root.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_object());
  EXPECT_TRUE(b->Find("c")->bool_value());
  EXPECT_TRUE(root.Find("d")->is_null());
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto value = ParseJson("  {\n\t\"k\" : 1 }  ");
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(value.value().Find("k")->number_value(), 1.0);
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("nan").ok());
  EXPECT_FALSE(ParseJson("01").ok());
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} extra").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
}

TEST(JsonParseTest, RejectsDeepNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep).ok());
  // But 32 levels is comfortably inside the cap.
  std::string fine;
  for (int i = 0; i < 32; ++i) fine += "[";
  for (int i = 0; i < 32; ++i) fine += "]";
  EXPECT_TRUE(ParseJson(fine).ok());
}

TEST(JsonParseTest, ErrorsCarryByteOffset) {
  auto value = ParseJson("{\"a\": @}");
  ASSERT_FALSE(value.ok());
  EXPECT_NE(value.status().message().find("at byte 6"), std::string::npos)
      << value.status().message();
}

TEST(JsonAccessorTest, TypedGettersWithFallbacks) {
  auto value = ParseJson(
      R"({"s": "x", "n": 2.5, "i": 7, "b": true, "f": 1.5})");
  ASSERT_TRUE(value.ok());
  const JsonValue& root = value.value();

  EXPECT_EQ(root.GetString("s", "d").MoveValue(), "x");
  EXPECT_EQ(root.GetString("absent", "d").MoveValue(), "d");
  EXPECT_DOUBLE_EQ(root.GetNumber("n", 0.0).MoveValue(), 2.5);
  EXPECT_DOUBLE_EQ(root.GetNumber("absent", 9.0).MoveValue(), 9.0);
  EXPECT_EQ(root.GetInt("i", 0).MoveValue(), 7);
  EXPECT_EQ(root.GetInt("absent", -3).MoveValue(), -3);
  EXPECT_TRUE(root.GetBool("b", false).MoveValue());
  EXPECT_FALSE(root.GetBool("absent", false).MoveValue());

  // Wrong type → InvalidArgument naming the key.
  auto wrong = root.GetNumber("s", 0.0);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.status().message().find("s"), std::string::npos);
  // Non-integral number refused by GetInt.
  EXPECT_FALSE(root.GetInt("f", 0).ok());
  // So is one beyond 2^53, where doubles stop holding every integer (1e19
  // would not even fit int64); 2^53 itself is exact.
  const JsonValue big = ParseJson(R"({"edge": 9007199254740992,)"
                                  R"( "over": 9007199254740994, "huge": 1e19,)"
                                  R"( "neg": -1e19})").MoveValue();
  EXPECT_EQ(big.GetInt("edge", 0).MoveValue(), 9007199254740992);
  for (const char* key : {"over", "huge", "neg"}) {
    EXPECT_FALSE(big.GetInt(key, 0).ok()) << key;
  }
}

TEST(JsonWriterTest, EscapesNestsAndWritesFieldsByType) {
  JsonWriter w;
  w.BeginObject().Field("s", std::string("q\"b\\\n\t\x01\x1f\0", 9));
  w.Field("literal", "v").Field("b", true).Field("i", -3).Field("u", 4u);
  w.Key("a").BeginArray().BeginObject().EndObject().BeginArray().EndArray();
  w.Raw(R"({"r":1})").Int(2).EndArray().EndObject();
  EXPECT_EQ(w.str(), R"({"s":"q\"b\\\n\t\u0001\u001f\u0000","literal":"v",)"
                     R"("b":true,"i":-3,"u":4,"a":[{},[],{"r":1},2]})");
}

TEST(JsonWriterTest, NumbersAreExactShortestOrNull) {
  JsonWriter w;
  w.BeginArray().Double(0.1).Double(0.6).Double(1e-06).Double(1.0);
  w.Uint(UINT64_MAX).Fixed(2.5, 3).Double(std::nan("")).Double(HUGE_VAL);
  w.Double(-HUGE_VAL).Fixed(-HUGE_VAL, 3).EndArray();
  EXPECT_EQ(w.str(),
            "[0.1,0.6,1e-06,1,18446744073709551615,2.500,null,null,null,null]");
}

TEST(JsonWriterTest, OutputParsesBackToTheSameValues) {
  const std::string text("tab\there \"q\" \\ \x02", 16);
  JsonWriter w;
  w.BeginObject().Field("s", text).Field("third", 1.0 / 3.0);
  w.Field("big", 1e308).EndObject();
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << w.str();
  EXPECT_EQ(parsed.value().GetString("s", "").MoveValue(), text);
  EXPECT_EQ(parsed.value().GetNumber("third", 0).MoveValue(), 1.0 / 3.0);
  EXPECT_EQ(parsed.value().GetNumber("big", 0).MoveValue(), 1e308);
}

}  // namespace
}  // namespace bolton
