#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "tests/temp_dir.hpp"

namespace longtail::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string temp_path(const char* name) const { return tmp_.file(name); }

  // The bytes of `path`, read after its writer has closed it.
  static std::string bytes_of(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  test::TempDir tmp_;
};

// Rows reach the file as written: tab-separated cells, numbers in decimal,
// one '\n' per row, and TSV cells unquoted even when they hold a space.
TEST_F(CsvTest, TsvRoundTrip) {
  const auto path = temp_path("roundtrip.tsv");
  {
    DelimitedWriter out(path, '\t');
    ASSERT_TRUE(out.ok());
    out.row("id", "name", "count");
    out.row(1, "softonic.com", 64'300);
    out.row(2, "Somoto Ltd.", 5'652);
  }
  EXPECT_EQ(bytes_of(path),
            "id\tname\tcount\n"
            "1\tsoftonic.com\t64300\n"
            "2\tSomoto Ltd.\t5652\n");
}

// A CSV cell holding a comma, a quote or a line break is quoted, with
// embedded quotes doubled; any other cell is written bare.
TEST_F(CsvTest, CsvQuotingRoundTrip) {
  const auto path = temp_path("quoting.csv");
  {
    DelimitedWriter out(path, ',');
    out.row("plain", "with,comma", "with\"quote", "both,\"x\"", "two\nlines");
  }
  EXPECT_EQ(bytes_of(path),
            "plain,\"with,comma\",\"with\"\"quote\",\"both,\"\"x\"\"\","
            "\"two\nlines\"\n");
}

TEST_F(CsvTest, EmptyCellsPreserved) {
  const auto tsv = temp_path("empty.tsv");
  const auto csv = temp_path("empty.csv");
  {
    DelimitedWriter out(tsv, '\t');
    out.row("", "middle", "");
    DelimitedWriter out_csv(csv, ',');
    out_csv.row("", "middle", "");
  }
  EXPECT_EQ(bytes_of(tsv), "\tmiddle\t\n");
  EXPECT_EQ(bytes_of(csv), ",middle,\n");
}

// A writer whose directory does not exist is not ok(), the state
// export_corpus checks before it writes meta.tsv and the name pools.
TEST_F(CsvTest, MissingFileNotOk) {
  DelimitedWriter out(temp_path("missing/file.tsv"), '\t');
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace longtail::util
