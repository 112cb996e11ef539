#include "telemetry/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"

namespace awp::telemetry {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool consumeIf(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0)
      fail("invalid literal");
    pos_ += word.size();
  }

  JsonValue value() {
    skipWs();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.text = string();
        return v;
      }
      case 't': {
        literal("true");
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        literal("false");
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        literal("null");
        return JsonValue{};
      }
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skipWs();
    if (consumeIf('}')) return v;
    while (true) {
      skipWs();
      std::string key = string();
      skipWs();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skipWs();
      if (consumeIf(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skipWs();
    if (consumeIf(']')) return v;
    while (true) {
      v.items.push_back(value());
      skipWs();
      if (consumeIf(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
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
        case 'u': out += unicodeEscape(); break;
        default: fail("invalid escape");
      }
    }
  }

  std::string unicodeEscape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int n = 0; n < 4; ++n) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    // BMP only; encode as UTF-8. (Surrogate pairs never appear in the
    // identifiers and paths the report emits.)
    std::string out;
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return out;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (consumeIf('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = d;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parseJson(const std::string& text) { return Parser(text).document(); }

std::string escapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  static constexpr char kHex[] = "0123456789abcdef";
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
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  beginElement();
  out_ += '"';
  out_ += escapeJson(std::string(k));
  out_ += "\": ";
  afterKey_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return token(buf);
}

JsonWriter& JsonWriter::value(std::string_view v) {
  return token('"' + escapeJson(std::string(v)) + '"');
}

JsonWriter& JsonWriter::open(char bracket) {
  beginElement();
  out_ += bracket;
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  const bool multiline = counts_.size() <= 2;
  const bool empty = counts_.back() == 0;
  counts_.pop_back();
  if (multiline && !empty) {
    out_ += '\n';
    out_.append(2 * counts_.size(), ' ');
  }
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::token(std::string_view text) {
  beginElement();
  out_ += text;
  return *this;
}

void JsonWriter::beginElement() {
  if (afterKey_) {  // the value of a key just written
    afterKey_ = false;
    return;
  }
  if (counts_.empty()) return;  // the root
  if (counts_.back()++ > 0) out_ += ',';
  if (counts_.size() <= 2) {
    out_ += '\n';
    out_.append(2 * counts_.size(), ' ');
  } else if (counts_.back() > 1) {
    out_ += ' ';
  }
}

void writeTextAtomically(const std::string& path, const std::string& text) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  if (target.has_parent_path()) fs::create_directories(target.parent_path());
  const fs::path tmp = target.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot open " + tmp.string());
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) throw Error("short write to " + tmp.string());
  }
  fs::rename(tmp, target);
}

bool parseDocument(const std::string& text, std::string_view schema,
                   int version, JsonValue& root,
                   std::vector<std::string>& out) {
  try {
    root = parseJson(text);
  } catch (const Error& e) {
    out.push_back(std::string("parse error: ") + e.what());
    return false;
  }
  if (!root.isObject()) {
    out.push_back("document is not an object");
    return false;
  }
  if (textOf(root, "schema") != schema)
    out.push_back("missing or wrong 'schema' identifier");
  if (numberOf(root, "version") != version)
    out.push_back("missing or unsupported 'version'");
  return true;
}

namespace {

bool isHex32(std::string_view s) {
  if (s.size() != 32) return false;
  for (char c : s)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

}  // namespace

void checkFields(const JsonValue& obj, const std::string& context,
                 std::span<const JsonField> fields,
                 std::vector<std::string>& out) {
  using Type = JsonField::Type;
  for (const JsonField& f : fields) {
    const std::string key(f.key);
    const JsonValue* v = obj.find(key);
    const auto fault = [&](const std::string& what) {
      out.push_back(context + ": field '" + key + "' " + what);
    };
    switch (f.type) {
      case Type::Number:
        if (v == nullptr || !v->isNumber()) {
          fault("is missing or not a number");
        } else if (!std::isfinite(v->number)) {
          fault("is not finite");
        } else if (v->number < f.minimum) {
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%g", f.minimum);
          fault(std::string("is below ") + buf);
        }
        break;
      case Type::String:
        if (v == nullptr || !v->isString()) fault("is missing or not a string");
        break;
      case Type::Bool:
        if (v == nullptr || v->kind != JsonValue::Kind::Bool)
          fault("is missing or not a boolean");
        break;
      case Type::Hex32:
        if (v == nullptr || !v->isString() || !isHex32(v->text))
          fault("is not a 32-hex digest");
        break;
    }
  }
}

double numberOf(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->isNumber() && std::isfinite(v->number)
             ? v->number
             : std::numeric_limits<double>::quiet_NaN();
}

std::string_view textOf(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->isString() ? std::string_view(v->text)
                                       : std::string_view();
}

}  // namespace awp::telemetry
