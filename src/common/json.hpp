// Minimal dependency-free JSON: a recursive-descent parser producing a
// JsonValue tree, and a serializer whose number formatting round-trips
// doubles exactly. Exists so scenario specs can live in user-authored
// files (engine/spec) without pulling a third-party library into the
// build. Errors carry line:column positions and, through the typed
// accessors, the offending field path, so a bad spec fails with a message
// that names what to fix.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace esched {

/// One node of a parsed JSON document. Object member order is preserved
/// (specs serialize back in a stable, diffable order).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  /// Value semantics: copies are deep (a copied object/array never
  /// aliases the original's children), moves are cheap.
  JsonValue(const JsonValue& other);
  JsonValue& operator=(const JsonValue& other);
  JsonValue(JsonValue&&) = default;
  JsonValue& operator=(JsonValue&&) = default;
  ~JsonValue() = default;

  static JsonValue make_null();
  static JsonValue make_bool(bool value);
  static JsonValue make_number(double value);
  static JsonValue make_string(std::string value);
  static JsonValue make_array(Array items = {});
  static JsonValue make_object(Object members = {});

  Kind kind() const { return kind_; }
  const char* kind_name() const;
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; `where` names the field in error messages (e.g.
  /// "axes.rho[2]"). Throw esched::Error on a kind mismatch.
  bool as_bool(const std::string& where) const;
  double as_number(const std::string& where) const;
  /// as_number that additionally requires an integral value within
  /// [lo, hi]; the error message names `where` and the valid range.
  /// 64-bit on every platform (LLP64 included) so billion-scale bounds
  /// like sim_jobs limits never overflow.
  long long as_integer(const std::string& where, long long lo,
                       long long hi) const;
  const std::string& as_string(const std::string& where) const;
  const Array& as_array(const std::string& where) const;
  const Object& as_object(const std::string& where) const;

  /// Object lookup: nullptr when the key is absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  /// Builder helpers for serialization.
  void push_back(JsonValue item);                      // array
  void set(const std::string& key, JsonValue value);   // object

  /// Serializes the tree. Numbers use the shortest decimal form that
  /// parses back to the same double, so dump/parse round-trips are exact.
  std::string dump(int indent = 2) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Indirect so the recursive layout stays movable; the copy operations
  // above clone these so copies never share children.
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses a complete JSON document (trailing garbage is an error). Throws
/// esched::Error with "<origin>:line:col: ..." positions; pass the file
/// name (or any label) as `origin`.
JsonValue parse_json(const std::string& text,
                     const std::string& origin = "json");

/// Decimal form of `value` that strtod parses back bitwise equal: a plain
/// integer when `value` is integral with |value| < 2^53, else the shortest
/// round-trip %g form.
std::string json_number_to_string(double value);

}  // namespace esched
