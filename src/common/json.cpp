#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace esched {

JsonValue::JsonValue(const JsonValue& other)
    : kind_(other.kind_),
      bool_(other.bool_),
      number_(other.number_),
      string_(other.string_),
      array_(other.array_ ? std::make_shared<Array>(*other.array_) : nullptr),
      object_(other.object_ ? std::make_shared<Object>(*other.object_)
                            : nullptr) {}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);  // copy-construct, then move
  return *this;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::make_number(double value) {
  ESCHED_CHECK(std::isfinite(value), "JSON numbers must be finite");
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::make_array(Array items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::make_shared<Array>(std::move(items));
  return v;
}

JsonValue JsonValue::make_object(Object members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::make_shared<Object>(std::move(members));
  return v;
}

const char* JsonValue::kind_name() const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "a boolean";
    case Kind::kNumber: return "a number";
    case Kind::kString: return "a string";
    case Kind::kArray: return "an array";
    case Kind::kObject: return "an object";
  }
  return "unknown";
}

bool JsonValue::as_bool(const std::string& where) const {
  ESCHED_CHECK(is_bool(), where + ": expected a boolean, got " +
                              std::string(kind_name()));
  return bool_;
}

double JsonValue::as_number(const std::string& where) const {
  ESCHED_CHECK(is_number(), where + ": expected a number, got " +
                                std::string(kind_name()));
  return number_;
}

long long JsonValue::as_integer(const std::string& where, long long lo,
                                long long hi) const {
  const double value = as_number(where);
  ESCHED_CHECK(value == std::floor(value) &&
                   value >= static_cast<double>(lo) &&
                   value <= static_cast<double>(hi),
               where + ": expected an integer in [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "], got " +
                   json_number_to_string(value));
  return static_cast<long long>(value);
}

const std::string& JsonValue::as_string(const std::string& where) const {
  ESCHED_CHECK(is_string(), where + ": expected a string, got " +
                                std::string(kind_name()));
  return string_;
}

const JsonValue::Array& JsonValue::as_array(const std::string& where) const {
  ESCHED_CHECK(is_array(), where + ": expected an array, got " +
                               std::string(kind_name()));
  return *array_;
}

const JsonValue::Object& JsonValue::as_object(const std::string& where) const {
  ESCHED_CHECK(is_object(), where + ": expected an object, got " +
                                std::string(kind_name()));
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : *object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue item) {
  ESCHED_CHECK(is_array(), "push_back on a non-array JSON value");
  array_->push_back(std::move(item));
}

void JsonValue::set(const std::string& key, JsonValue value) {
  ESCHED_CHECK(is_object(), "set on a non-object JSON value");
  for (auto& [name, existing] : *object_) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  object_->emplace_back(key, std::move(value));
}

std::string json_number_to_string(double value) {
  char buf[40];
  // Integral values below 2^53 print as plain integers ("30", never
  // "3e+01"); %.0f keeps the sign of -0.
  if (value == std::floor(value) && std::abs(value) < 0x1p53) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  // Otherwise the shortest %.<p>g form that survives a strtod round trip;
  // %.17g always does.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

namespace {

void escape_into(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_into(const JsonValue& v, int indent, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
  const char* sep = indent > 0 ? "\n" : "";
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; return;
    case JsonValue::Kind::kBool:
      out += v.as_bool("dump") ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      out += json_number_to_string(v.as_number("dump"));
      return;
    case JsonValue::Kind::kString: escape_into(v.as_string("dump"), out); return;
    case JsonValue::Kind::kArray: {
      const auto& items = v.as_array("dump");
      if (items.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      out += sep;
      for (std::size_t n = 0; n < items.size(); ++n) {
        if (indent > 0) out += pad;
        dump_into(items[n], indent, depth + 1, out);
        if (n + 1 < items.size()) out += indent > 0 ? "," : ", ";
        out += sep;
      }
      if (indent > 0) out += close_pad;
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      const auto& members = v.as_object("dump");
      if (members.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      out += sep;
      for (std::size_t n = 0; n < members.size(); ++n) {
        if (indent > 0) out += pad;
        escape_into(members[n].first, out);
        out += ": ";
        dump_into(members[n].second, indent, depth + 1, out);
        if (n + 1 < members.size()) out += indent > 0 ? "," : ", ";
        out += sep;
      }
      if (indent > 0) out += close_pad;
      out += '}';
      return;
    }
  }
}

/// Recursive-descent JSON parser tracking line/column for error messages.
class Parser {
 public:
  Parser(const std::string& text, const std::string& origin)
      : text_(text), origin_(origin) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ < text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t n = 0; n < pos_ && n < text_.size(); ++n) {
      if (text_[n] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error(origin_ + ":" + std::to_string(line) + ":" +
                std::to_string(col) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    // Bound recursion so a pathologically nested document (e.g. 100k
    // consecutive '[') errors with a position instead of overflowing the
    // stack.
    if (depth_ >= 200) fail("nesting deeper than 200 levels");
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("invalid literal (expected 'true')");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("invalid literal (expected 'false')");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail("invalid literal (expected 'null')");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    ++depth_;
    JsonValue::Object members;
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      for (const auto& [existing, unused] : members) {
        if (existing == key) fail("duplicate object key \"" + key + "\"");
      }
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return JsonValue::make_object(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    ++depth_;
    JsonValue::Array items;
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return JsonValue::make_array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int n = 0; n < 4; ++n) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Reject surrogates outright: encoding them raw would produce
          // invalid UTF-8 (CESU-8) that silently corrupts names and CSV
          // output. Scenario specs are ASCII identifiers and numbers;
          // astral code points are not worth the pair-decoding machinery.
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("\\u surrogate escapes are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(std::string("unknown escape '\\") + esc + "'");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    skip_whitespace();
    // Enforce JSON's number grammar positionally before handing the span
    // to strtod (which is laxer: hex, "inf", "+5", ".5", "01", "5.").
    //   -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
    const std::size_t start = pos_;
    std::size_t p = pos_;
    const auto digits = [&](const char* what) {
      const std::size_t first = p;
      while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') ++p;
      if (p == first) {
        pos_ = p;
        fail(std::string("invalid number: expected ") + what);
      }
    };
    if (p < text_.size() && text_[p] == '-') ++p;
    if (p < text_.size() && text_[p] == '0') {
      ++p;  // a leading zero stands alone ("01" is not JSON)
    } else {
      digits("a digit");
    }
    if (p < text_.size() && text_[p] == '.') {
      ++p;
      digits("a digit after '.'");
    }
    if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
      ++p;
      if (p < text_.size() && (text_[p] == '+' || text_[p] == '-')) ++p;
      digits("a digit in the exponent");
    }
    char* end = nullptr;
    const double value = std::strtod(text_.c_str() + start, &end);
    const auto parsed = static_cast<std::size_t>(end - text_.c_str());
    if (parsed != p) fail("invalid JSON value");
    if (!std::isfinite(value)) fail("number out of double range");
    pos_ = p;
    return JsonValue::make_number(value);
  }

  const std::string& text_;
  const std::string origin_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_into(*this, indent, 0, out);
  return out;
}

JsonValue parse_json(const std::string& text, const std::string& origin) {
  return Parser(text, origin).parse_document();
}

}  // namespace esched
