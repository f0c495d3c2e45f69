/**
 * @file
 * Tests for the JSON reader (sim/json) behind the DSE autotuner's
 * --resume-from: well-formed documents parse to the expected values,
 * and malformed ones, however deeply nested, fail with a located
 * error instead of an exception, a bogus document or a crash.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/json.hh"

using namespace gpummu;

namespace {

TEST(Json, ParserRejectsMalformedJson)
{
    JsonValue doc;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":}", doc, &err));
    EXPECT_NE(err.find("json parse error"), std::string::npos);

    EXPECT_FALSE(parseJson("{\"a\":1", doc, &err));
    EXPECT_FALSE(parseJson("[1,2,", doc, &err));
    EXPECT_FALSE(parseJson("\"unterminated", doc, &err));
    EXPECT_FALSE(parseJson("{\"a\":1} trailing", doc, &err));
    EXPECT_FALSE(parseJson("", doc, &err));
    EXPECT_FALSE(parseJson("nul", doc, &err));
}

TEST(Json, ParserHandlesEscapesAndNesting)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(
        "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[{\"x\":-1.5e3},null,true]}",
        doc, &err))
        << err;
    EXPECT_EQ(doc.find("s")->str, "a\"b\\c\n");
    const JsonValue *arr = doc.find("arr");
    ASSERT_EQ(arr->items.size(), 3u);
    EXPECT_DOUBLE_EQ(arr->items[0].find("x")->number, -1500.0);
    EXPECT_EQ(arr->items[1].kind, JsonValue::Kind::Null);
    EXPECT_TRUE(arr->items[2].boolean);
}

/** @p depth nested arrays around one number: "[[1]]" for depth 2. */
std::string
nestedArrays(int depth)
{
    return std::string(depth, '[') + "1" + std::string(depth, ']');
}

TEST(Json, NestingIsCappedAtMaxDepth)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(nestedArrays(kJsonMaxDepth), doc, &err))
        << err;

    // One level past the cap fails at the byte that opens it.
    EXPECT_FALSE(parseJson(nestedArrays(kJsonMaxDepth + 1), doc, &err));
    EXPECT_EQ(err, "json parse error at byte " +
                       std::to_string(kJsonMaxDepth) +
                       ": nesting deeper than " +
                       std::to_string(kJsonMaxDepth));

    // Objects count toward the same cap.
    std::string objects;
    for (int i = 0; i <= kJsonMaxDepth; ++i)
        objects += "{\"k\":";
    objects += "1" + std::string(kJsonMaxDepth + 1, '}');
    EXPECT_FALSE(parseJson(objects, doc, &err));
    EXPECT_NE(err.find("nesting deeper than"), std::string::npos);

    // Deep enough to overflow the stack of an unbounded recursive
    // descent; the cap makes it an ordinary parse error.
    EXPECT_FALSE(parseJson(std::string(300000, '['), doc, &err));
    EXPECT_NE(err.find("nesting deeper than"), std::string::npos);
}

} // namespace
