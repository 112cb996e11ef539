#pragma once
// Minimal JSON tree, parser, writer and schema checks — just enough for the
// report schemas (telemetry, scheduler service, cycle catalog): emit
// structured reports without a dependency, and validate emitted text
// against each schema in tests and the CI gate.
// Supported: objects, arrays, strings (with the standard escapes and
// BMP \uXXXX), numbers (via strtod), true/false/null. No comments, no
// trailing commas — exactly RFC 8259's grammar for the subset we emit.

#include <concepts>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace awp::telemetry {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;                            // Array
  std::vector<std::pair<std::string, JsonValue>> members;  // Object

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  [[nodiscard]] bool isNumber() const { return kind == Kind::Number; }
  [[nodiscard]] bool isString() const { return kind == Kind::String; }
  [[nodiscard]] bool isArray() const { return kind == Kind::Array; }
  [[nodiscard]] bool isObject() const { return kind == Kind::Object; }

  // Same tree: kinds, values, item order and member order all match.
  bool operator==(const JsonValue&) const = default;
};

// Parse a complete JSON document; throws awp::Error (with the byte offset)
// on malformed input or trailing garbage.
JsonValue parseJson(const std::string& text);

// Escape a string for embedding in a JSON document (without quotes).
std::string escapeJson(const std::string& s);

// Streaming writer. Containers at nesting depth 0 and 1 put one element
// per line (two-space indent); deeper containers are written on one line.
// Doubles use %.17g, so they read back bit-exact; strings go through
// escapeJson. Calls must nest correctly and a key must precede every value
// inside an object; the writer does not check either.
class JsonWriter {
 public:
  JsonWriter& beginObject() { return open('{'); }
  JsonWriter& endObject() { return close('}'); }
  JsonWriter& beginArray() { return open('['); }
  JsonWriter& endArray() { return close(']'); }
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double v);
  JsonWriter& value(bool v) { return token(v ? "true" : "false"); }
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  template <std::integral T>
  JsonWriter& value(T v) {
    return token(std::to_string(v));
  }

  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  // The finished document, newline-terminated.
  [[nodiscard]] std::string str() const { return out_ + "\n"; }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  JsonWriter& token(std::string_view text);
  void beginElement();

  std::string out_;
  std::vector<std::size_t> counts_;  // elements written per open container
  bool afterKey_ = false;
};

// Write `text` to `path` atomically: a `.tmp` sibling is written, then
// renamed over the target. Creates missing parent directories.
void writeTextAtomically(const std::string& path, const std::string& text);

// --- schema checks ---------------------------------------------------------

// One member an object must carry.
struct JsonField {
  enum class Type { Number, String, Bool, Hex32 };
  const char* key;
  Type type = Type::Number;
  // Numbers must be finite and at least this.
  double minimum = -std::numeric_limits<double>::infinity();
};

// Parse `text` and check its header: the root is an object whose "schema"
// is `schema` and whose "version" is `version`. Every fault is appended to
// `out`; returns false when the document cannot be checked further (it
// does not parse, or the root is not an object).
bool parseDocument(const std::string& text, std::string_view schema,
                   int version, JsonValue& root,
                   std::vector<std::string>& out);

// Check `obj` against `fields`: appends one "<context>: ..." violation per
// member that is missing, has the wrong type, is a non-finite number or one
// below its minimum, or (Hex32) is not 32 lowercase hex digits.
void checkFields(const JsonValue& obj, const std::string& context,
                 std::span<const JsonField> fields,
                 std::vector<std::string>& out);

// Member readers for cross-field rules: NaN unless obj[key] is a finite
// number, "" unless it is a string. NaN compares false, so a numeric rule
// over a missing member does not repeat checkFields' report.
[[nodiscard]] double numberOf(const JsonValue& obj, const std::string& key);
[[nodiscard]] std::string_view textOf(const JsonValue& obj,
                                      const std::string& key);

}  // namespace awp::telemetry
