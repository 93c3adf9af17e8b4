// JsonValue parser/dumper: the shard-plan file format and the router's
// health aggregation both lean on it, so malformed-input behavior is
// contract, not detail.

#include "common/json.h"

#include <gtest/gtest.h>

namespace entmatcher {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_EQ(JsonValue::Parse("true")->AsBool(), true);
  EXPECT_EQ(JsonValue::Parse("false")->AsBool(), false);
  EXPECT_EQ(JsonValue::Parse("42")->AsInt(), 42);
  EXPECT_EQ(JsonValue::Parse("-7")->AsInt(), -7);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("2.5")->AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, ParsesNestedStructure) {
  Result<JsonValue> doc = JsonValue::Parse(
      R"({"shards": [{"id": 0}, {"id": 1}], "name": "p", "rows": 10})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->GetInt("rows").value(), 10);
  EXPECT_EQ(doc->GetString("name").value(), "p");
  const JsonValue::Array* shards = doc->GetArray("shards").value();
  ASSERT_EQ(shards->size(), 2u);
  EXPECT_EQ((*shards)[1].GetInt("id").value(), 1);
}

TEST(JsonTest, StringEscapes) {
  Result<JsonValue> parsed =
      JsonValue::Parse("\"a\\n\\t\\\"b\\\\\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsString(), "a\n\t\"b\\A\xc3\xa9");
}

TEST(JsonTest, SurrogatePairDecodesToUtf8) {
  Result<JsonValue> parsed = JsonValue::Parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nulL").ok());
  // Trailing garbage after a complete document is an error, not ignored.
  EXPECT_FALSE(JsonValue::Parse("{} x").ok());
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, TypedAccessorsNameTheOffendingKey) {
  Result<JsonValue> doc = JsonValue::Parse(R"({"rows": "ten"})");
  ASSERT_TRUE(doc.ok());
  Result<int64_t> rows = doc->GetInt("rows");
  EXPECT_FALSE(rows.ok());
  EXPECT_NE(rows.status().message().find("rows"), std::string::npos);
  EXPECT_FALSE(doc->GetInt("absent").ok());
  EXPECT_EQ(doc->GetStringOr("absent", "dflt").value(), "dflt");
}

TEST(JsonTest, DumpRoundTrips) {
  const std::string text =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-3})";
  Result<JsonValue> doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.ok());
  Result<JsonValue> again = JsonValue::Parse(doc->Dump());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->Dump(), doc->Dump());
}

TEST(JsonTest, JsonEscapeQuotesAndControls) {
  EXPECT_EQ(JsonValue("plain").Dump(), "\"plain\"");
  EXPECT_EQ(JsonValue("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonValue(std::string("\x01", 1)).Dump(), "\"\\u0001\"");
}

// Doubles print in their shortest round-trip form, so a latency reads as
// it was measured and still parses back to the same bits.
TEST(JsonTest, DumpPrintsShortestRoundTripDoubles) {
  for (const double value : {638.879, 0.1, 1e-7, 2.5e300, -3.0}) {
    const std::string text = JsonValue(value).Dump();
    Result<JsonValue> parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->AsDouble(), value) << text;
  }
  EXPECT_EQ(JsonValue(638.879).Dump(), "638.879");
  EXPECT_EQ(JsonValue(0.1).Dump(), "0.1");
}

// Writing through operator[] inserts or replaces a member, and turns a
// value that is not an object into one.
TEST(JsonTest, MemberWritesBuildAnObject) {
  JsonValue doc = JsonValue::Object{{"a", 1}};
  doc["b"] = "x";
  doc["a"] = 2;
  EXPECT_EQ(doc.Dump(), R"({"a":2,"b":"x"})");
  JsonValue scalar(7);
  scalar["k"] = true;
  EXPECT_EQ(scalar.Dump(), R"({"k":true})");
}

}  // namespace
}  // namespace entmatcher
