// Minimal delimited-text writing used by the corpus exporter and the
// figure dumps. The CSV dialect quotes a cell that holds a comma, a quote
// or a line break; the TSV dialect writes every cell as it is, since the
// generated entity names it carries contain no tab or newline.
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace longtail::util {

class DelimitedWriter {
 public:
  // `delimiter` is ',' for CSV or '\t' for TSV.
  DelimitedWriter(const std::string& path, char delimiter);

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  void write_row(const std::vector<std::string>& cells);

  template <typename... Cells>
  void row(const Cells&... cells) {
    write_row({to_cell(cells)...});
  }

 private:
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(std::string_view s) { return std::string(s); }
  static std::string to_cell(const char* s) { return s; }
  template <typename T>
  static std::string to_cell(T value) {
    return std::to_string(value);
  }

  [[nodiscard]] std::string escape(const std::string& cell) const;

  std::ofstream out_;
  char delimiter_;
};

}  // namespace longtail::util
