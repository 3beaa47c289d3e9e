#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace longtail::util::json {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

Object& Object::field(std::string_view key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return raw(key, buf);
}

Object& Object::field(std::string_view key, std::uint64_t v) {
  return raw(key, std::to_string(v));
}

Object& Object::field(std::string_view key, unsigned v) {
  return raw(key, std::to_string(v));
}

Object& Object::field(std::string_view key, bool v) {
  return raw(key, v ? "true" : "false");
}

Object& Object::field(std::string_view key, std::string_view v) {
  std::string quoted = "\"";
  append_escaped(quoted, v);
  quoted += '"';
  return raw(key, quoted);
}

Object& Object::raw(std::string_view key, std::string_view json) {
  if (!first_) out_ += ", ";
  first_ = false;
  out_ += '"';
  append_escaped(out_, key);
  out_ += "\": ";
  out_.append(json);
  return *this;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  explicit Parser(std::string_view s)
      : begin_(s.data()), p_(s.data()), end_(s.data() + s.size()) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (p_ != end_) fail("trailing bytes after the value");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "JSON: %s at offset %zu", what,
                  static_cast<std::size_t>(p_ - begin_));
    throw std::runtime_error(buf);
  }

  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r'))
      ++p_;
  }

  char peek() {
    skip_ws();
    if (p_ >= end_) fail("unexpected end");
    return *p_;
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++p_;
  }

  bool consume_literal(std::string_view lit) {
    if (static_cast<std::size_t>(end_ - p_) < lit.size() ||
        std::string_view(p_, lit.size()) != lit)
      return false;
    p_ += lit.size();
    return true;
  }

  int hex_digit() {
    if (p_ >= end_ || std::isxdigit(static_cast<unsigned char>(*p_)) == 0)
      fail("bad \\u escape");
    const char c = *p_++;
    return is_digit(c) ? c - '0' : (c | 0x20) - 'a' + 10;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (p_ < end_ && *p_ != '"') {
      const char c = *p_;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("control character in string");
      ++p_;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ >= end_) fail("bad escape");
      switch (*p_++) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          int cp = 0;
          for (int i = 0; i < 4; ++i) cp = cp * 16 + hex_digit();
          // The writer escapes only control bytes; anything wider is
          // kept as '?' rather than re-encoded.
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
    if (p_ >= end_) fail("unterminated string");
    ++p_;  // closing quote
    return out;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  void number(Value& v) {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    if (p_ < end_ && *p_ == '0') {
      ++p_;
    } else if (p_ < end_ && is_digit(*p_)) {
      while (p_ < end_ && is_digit(*p_)) ++p_;
    } else {
      p_ = start;
      fail("expected a value");
    }
    const auto digits = [&] {
      if (p_ >= end_ || !is_digit(*p_)) fail("bad number");
      while (p_ < end_ && is_digit(*p_)) ++p_;
    };
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      digits();
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      digits();
    }
    v.kind = Value::kNum;
    v.str.assign(start, p_);
    v.num = std::strtod(v.str.c_str(), nullptr);
    if (!std::isfinite(v.num)) {
      p_ = start;
      fail("number out of range");
    }
  }

  Value value(std::size_t depth) {
    const char c = peek();
    Value v;
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) fail("nesting too deep");
      ++p_;
      const char close = c == '{' ? '}' : ']';
      v.kind = c == '{' ? Value::kObj : Value::kArr;
      if (peek() == close) {
        ++p_;
        return v;
      }
      for (;;) {
        if (v.kind == Value::kObj) {
          skip_ws();
          std::string key = string_body();
          expect(':');
          v.obj.emplace_back(std::move(key), value(depth + 1));
        } else {
          v.arr.push_back(value(depth + 1));
        }
        if (peek() != ',') break;
        ++p_;
      }
      expect(close);
      return v;
    }
    if (c == '"') {
      v.kind = Value::kStr;
      v.str = string_body();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = Value::kBool;
      v.b = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = Value::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    number(v);
    return v;
  }

  const char* begin_;
  const char* p_;
  const char* end_;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace longtail::util::json
