#include "scenario/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace dpm::scenario {

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("json: not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw JsonError("json: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("json: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw JsonError("json: not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject) throw JsonError("json: not an object");
  return members_;
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_at(std::string_view key) const {
  const JsonValue* v = get(key);
  if (v == nullptr || !v->is_number()) {
    throw JsonError("json: missing or non-numeric field '" +
                    std::string(key) + "'");
  }
  return v->as_number();
}

const std::string& JsonValue::string_at(std::string_view key) const {
  const JsonValue* v = get(key);
  if (v == nullptr || !v->is_string()) {
    throw JsonError("json: missing or non-string field '" + std::string(key) +
                    "'");
  }
  return v->as_string();
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) throw JsonError("json: push_back on non-array");
  items_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != Kind::kObject) throw JsonError("json: set on non-object");
  members_.emplace_back(std::move(key), std::move(v));
}

// ------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::null();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // BMP-only UTF-8 encoding (cache payloads are ASCII; this
          // branch exists for completeness).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    // Parse the slice in place, without a heap copy.  from_chars takes
    // no leading '+', which strtod accepts; skip it unless a sign
    // follows, so "+-1" stays malformed as under strtod.
    const char* first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    if (*first == '+' && last - first > 1 && first[1] != '-') ++first;
    double v = 0.0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec == std::errc::result_out_of_range && end == last) {
      // from_chars leaves v unset on overflow/underflow, where strtod
      // returns +-HUGE_VAL or the nearest denormal/zero; keep strtod's
      // values ("1e999" is inf, "1e-400" is 0) via a NUL-terminated copy.
      const std::string slice(first, last);
      v = std::strtod(slice.c_str(), nullptr);
    } else if (ec != std::errc() || end != last) {
      fail("malformed number");
    }
    return JsonValue::number(v);
  }
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

// ------------------------------------------------------------- writer

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  // 17 significant digits round-trip every finite IEEE-754 double.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      out += json_number(number_);
      break;
    case Kind::kString:
      out.push_back('"');
      out += json_escape(string_);
      out.push_back('"');
      break;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out.push_back(',');
        items_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out.push_back(',');
        out.push_back('"');
        out += json_escape(members_[i].first);
        out += "\":";
        members_[i].second.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace dpm::scenario
