#include "util/csv.hpp"

namespace longtail::util {

DelimitedWriter::DelimitedWriter(const std::string& path, char delimiter)
    : out_(path), delimiter_(delimiter) {}

std::string DelimitedWriter::escape(const std::string& cell) const {
  if (delimiter_ == '\t') return cell;  // TSV: names are tab/newline-free
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

void DelimitedWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_.put(delimiter_);
    out_ << escape(cells[i]);
  }
  out_.put('\n');
}

}  // namespace longtail::util
