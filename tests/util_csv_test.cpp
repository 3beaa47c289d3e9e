#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "tests/temp_dir.hpp"

namespace longtail::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string temp_path(const char* name) const { return tmp_.file(name); }

  test::TempDir tmp_;
};

TEST_F(CsvTest, TsvRoundTrip) {
  const auto path = temp_path("roundtrip.tsv");
  {
    DelimitedWriter out(path, '\t');
    ASSERT_TRUE(out.ok());
    out.row("id", "name", "count");
    out.row(1, "softonic.com", 64'300);
    out.row(2, "Somoto Ltd.", 5'652);
  }
  DelimitedReader in(path, '\t');
  ASSERT_TRUE(in.ok());
  std::vector<std::string> cells;
  ASSERT_TRUE(in.read_row(cells));
  EXPECT_EQ(cells, (std::vector<std::string>{"id", "name", "count"}));
  ASSERT_TRUE(in.read_row(cells));
  EXPECT_EQ(cells[1], "softonic.com");
  EXPECT_EQ(cells[2], "64300");
  ASSERT_TRUE(in.read_row(cells));
  EXPECT_EQ(cells[1], "Somoto Ltd.");
  EXPECT_FALSE(in.read_row(cells));
}

TEST_F(CsvTest, CsvQuotingRoundTrip) {
  const auto path = temp_path("quoting.csv");
  {
    DelimitedWriter out(path, ',');
    out.row("plain", "with,comma", "with\"quote", "both,\"x\"");
  }
  DelimitedReader in(path, ',');
  std::vector<std::string> cells;
  ASSERT_TRUE(in.read_row(cells));
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0], "plain");
  EXPECT_EQ(cells[1], "with,comma");
  EXPECT_EQ(cells[2], "with\"quote");
  EXPECT_EQ(cells[3], "both,\"x\"");
}

TEST_F(CsvTest, EmptyCellsPreserved) {
  const auto path = temp_path("empty.tsv");
  {
    DelimitedWriter out(path, '\t');
    out.row("", "middle", "");
  }
  DelimitedReader in(path, '\t');
  std::vector<std::string> cells;
  ASSERT_TRUE(in.read_row(cells));
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "");
  EXPECT_EQ(cells[1], "middle");
  EXPECT_EQ(cells[2], "");
}

TEST_F(CsvTest, MissingFileNotOk) {
  DelimitedReader in("/nonexistent/path/file.tsv", '\t');
  EXPECT_FALSE(in.ok());
}

TEST_F(CsvTest, CrlfTolerated) {
  const auto path = temp_path("crlf.tsv");
  {
    std::ofstream out(path, std::ios::binary);
    out << "a\tb\r\n";
  }
  DelimitedReader in(path, '\t');
  std::vector<std::string> cells;
  ASSERT_TRUE(in.read_row(cells));
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1], "b");
}

}  // namespace
}  // namespace longtail::util
