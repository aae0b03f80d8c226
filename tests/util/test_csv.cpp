#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace istc {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // ctest runs each test as its own process, possibly in parallel: one
  // file per test keeps a sibling's TearDown from deleting this one's.
  std::string path_ =
      ::testing::TempDir() + "/istc_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndRows) {
  {
    CsvWriter w(path_);
    w.header({"x", "y"});
    w.row(std::vector<std::string>{"1", "2"});
    w.row(std::vector<double>{3.5, 4.25});
  }
  EXPECT_EQ(read_all(path_), "x,y\n1,2\n3.5,4.25\n");
}

TEST_F(CsvTest, EscapesCommas) {
  {
    CsvWriter w(path_);
    w.row(std::vector<std::string>{"a,b", "plain"});
  }
  EXPECT_EQ(read_all(path_), "\"a,b\",plain\n");
}

TEST_F(CsvTest, EscapesQuotes) {
  {
    CsvWriter w(path_);
    w.row(std::vector<std::string>{"say \"hi\""});
  }
  EXPECT_EQ(read_all(path_), "\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, EscapesNewlines) {
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(Csv, EscapePassthroughForPlainFields) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(Csv, OpenFailureThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_zz/file.csv"),
               std::runtime_error);
}

TEST_F(CsvTest, NumericPrecision) {
  {
    CsvWriter w(path_);
    w.row(std::vector<double>{1.0 / 3.0}, 3);
  }
  EXPECT_EQ(read_all(path_), "0.333\n");
}

}  // namespace
}  // namespace istc
