// The one JSON reader and writer: BENCH_*.json files, the metrics
// snapshot, the run manifest, trace reports, and the Chrome trace
// documents trace_report reads all go through this module.
//
// Writer: `append_escaped` is the only string escaper, and `Object` is an
// append-only object builder that renders `"key": value` pairs joined by
// ", " — the byte format every BENCH file and CI jq check pins.
//
// Reader: `parse` is a strict parser into a small DOM. The input must be
// exactly one value plus whitespace; numbers follow the JSON grammar (no
// inf, nan, hex or leading '+'); `\u` takes four hex digits; strings hold
// no raw control bytes; nesting deeper than kMaxDepth is rejected before
// it can exhaust the stack. Every rejection is a std::runtime_error that
// names the byte offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace longtail::util::json {

// Appends `s` with JSON string escaping, without the surrounding quotes:
// `"` and `\` are backslash-escaped, newline and tab become \n and \t,
// and every other byte below 0x20 becomes \u00XX. Other bytes pass
// through unchanged.
void append_escaped(std::string& out, std::string_view s);

// Append-only JSON object builder. Keys and string values are escaped;
// doubles render as "%.6g"; raw() splices a pre-rendered JSON value.
class Object {
 public:
  Object& field(std::string_view key, double v);
  Object& field(std::string_view key, std::uint64_t v);
  Object& field(std::string_view key, unsigned v);
  Object& field(std::string_view key, bool v);
  Object& field(std::string_view key, std::string_view v);
  Object& raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string str() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
  bool first_ = true;
};

// Deeper nesting is a parse error. The documents this repository writes
// nest at most five levels.
inline constexpr std::size_t kMaxDepth = 64;

struct Value {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0;
  // kStr: the decoded string. kNum: the number exactly as written, so
  // integers beyond a double's precision can be read back exactly.
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;  // in document order

  // The first member named `key` of an object, or nullptr.
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] double num_or(double fallback) const {
    return kind == kNum ? num : fallback;
  }
  [[nodiscard]] std::string_view str_or(std::string_view fallback) const {
    return kind == kStr ? std::string_view(str) : fallback;
  }
};

// Parses one JSON document. Throws std::runtime_error on malformed input.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace longtail::util::json
