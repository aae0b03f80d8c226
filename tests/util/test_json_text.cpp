#include "util/json_text.hpp"

#include <gtest/gtest.h>

#include <string>

namespace istc::util {
namespace {

TEST(JsonText, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain name-1.0"), "plain name-1.0");
  EXPECT_EQ(json_escape("a\"b\\c\td\n"), R"(a\"b\\c\td\n)");
  EXPECT_EQ(json_escape("cr\rbell\a"), R"(cr\rbell\u0007)");
  EXPECT_EQ(json_escape(std::string("nul\0!", 5)), R"(nul\u0000!)");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 untouched
}

TEST(JsonText, FormatsDoublesWithSixSignificantDigits) {
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(2.0 / 3.0), "0.666667");
  EXPECT_EQ(format_double(1.5e9), "1.5e+09");
}

}  // namespace
}  // namespace istc::util
