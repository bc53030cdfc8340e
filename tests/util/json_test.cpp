#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace {

using diners::util::json_quoted;
using diners::util::JsonValue;
using diners::util::JsonWriter;
using diners::util::parse_json;

TEST(JsonQuoted, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(json_quoted("plain"), "\"plain\"");
  EXPECT_EQ(json_quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quoted("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quoted("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quoted("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quoted(std::string("nul\0byte", 8)), "\"nul\\u0000byte\"");
  EXPECT_EQ(json_quoted("\x01"), "\"\\u0001\"");
}

TEST(JsonWriter, WritesNestedStructure) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object()
      .field("name", "ring")
      .field("n", 8)
      .field("ok", true)
      .key("stats")
      .begin_object()
      .field("mean", 2.5)
      .end_object()
      .key("list")
      .begin_array()
      .value(1)
      .value(2)
      .end_array()
      .end_object();
  w.finish();
  const std::string expected =
      "{\n"
      "  \"name\": \"ring\",\n"
      "  \"n\": 8,\n"
      "  \"ok\": true,\n"
      "  \"stats\": {\n"
      "    \"mean\": 2.5\n"
      "  },\n"
      "  \"list\": [\n"
      "    1,\n"
      "    2\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(JsonWriter, FinishClosesOpenContainers) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object().key("a").begin_array().value(1);
  w.finish();
  EXPECT_NO_THROW((void)parse_json(out.str()));
}

TEST(JsonWriter, EmitsNullForNonFiniteDoubles) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(std::nan(""))
      .end_array();
  w.finish();
  const JsonValue doc = parse_json(out.str());
  EXPECT_TRUE(doc.as_array()[0].is_null());
  EXPECT_TRUE(doc.as_array()[1].is_null());
}

TEST(JsonWriter, NumbersRoundTripExactly) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_array().value(0.1).value(1e300).value(-42.0).end_array();
  w.finish();
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.as_array()[0].as_number(), 0.1);
  EXPECT_EQ(doc.as_array()[1].as_number(), 1e300);
  EXPECT_EQ(doc.as_array()[2].as_number(), -42.0);
}

TEST(JsonReader, ParsesScalarsAndContainers) {
  const JsonValue doc =
      parse_json(R"({"a": [1, 2.5, -3], "b": {"c": null, "d": false},)"
                 R"( "s": "x"})");
  EXPECT_EQ(doc.at("a").as_array().size(), 3u);
  EXPECT_EQ(doc.at("a").as_array()[0].as_number(), 1.0);
  EXPECT_EQ(doc.at("a").as_array()[2].as_number(), -3.0);
  EXPECT_TRUE(doc.at("b").at("c").is_null());
  EXPECT_FALSE(doc.at("b").at("d").as_bool());
  EXPECT_EQ(doc.at("s").as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), std::invalid_argument);
}

TEST(JsonReader, DecodesEscapesIncludingSurrogatePairs) {
  const JsonValue doc = parse_json(R"(["a\"b", "\u0041", "\uD83D\uDE00"])");
  EXPECT_EQ(doc.as_array()[0].as_string(), "a\"b");
  EXPECT_EQ(doc.as_array()[1].as_string(), "A");
  EXPECT_EQ(doc.as_array()[2].as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonReader, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_json(""), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("[1] trailing"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("[inf]"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("'single'"), std::invalid_argument);
}

TEST(JsonReader, RejectsRunawayNesting) {
  std::string deep(128, '[');
  deep += std::string(128, ']');
  EXPECT_THROW((void)parse_json(deep), std::invalid_argument);
}

TEST(JsonRoundTrip, WriterOutputParsesBackEqual) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object()
      .field("label", "quote\" and \\ and\nnewline")
      .field("value", 123.456)
      .key("params")
      .begin_object()
      .field("topology", "ring")
      .end_object()
      .end_object();
  w.finish();
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("label").as_string(), "quote\" and \\ and\nnewline");
  EXPECT_EQ(doc.at("value").as_number(), 123.456);
  EXPECT_EQ(doc.at("params").at("topology").as_string(), "ring");
}

}  // namespace
