// A minimal JSON writer for exporting analysis reports to tooling.
// Streaming, allocation-light, and strict about structure (asserts on
// misuse in debug builds); values are escaped per RFC 8259.
#ifndef LRT_SUPPORT_JSON_H_
#define LRT_SUPPORT_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.h"

namespace lrt {

/// Usage:
///   JsonWriter json;
///   json.begin_object();
///   json.key("name"); json.value("u1");
///   json.key("srg");  json.value(0.97);
///   json.key("hosts");
///   json.begin_array(); json.value(1); json.value(2); json.end_array();
///   json.end_object();
///   std::string text = std::move(json).str();
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits an object key; must be followed by exactly one value or
  /// container.
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(double number);
  void value(std::int64_t number);
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  void value(std::size_t number) {
    value(static_cast<std::int64_t>(number));
  }
  void value(bool flag);
  void null();
  /// Embeds `json` — one pre-serialized JSON value — verbatim where a
  /// value is expected (nesting a codec's document inside an envelope).
  /// The caller vouches for its well-formedness.
  void raw(std::string_view json);

  /// Bytes written so far, and room for `bytes` in total without
  /// regrowth: a caller that knows its document's size (lrtd's reply
  /// frames) writes it into one allocation instead of a doubling series.
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// The document; the writer is spent afterwards.
  [[nodiscard]] std::string str() &&;

 private:
  void comma_if_needed();
  void write_escaped(std::string_view text);

  std::string out_;
  /// One entry per open container: true iff it already has an element.
  std::vector<bool> has_elements_;
  bool after_key_ = false;
};

/// A parsed JSON document node. Numbers are doubles, so integers are
/// exact only up to kJsonMaxExactInt (json_to_int refuses larger ones);
/// object members keep their source order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member by key, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Strict RFC 8259 parser for round-tripping this library's own output
/// (full grammar, `\uXXXX` escapes decoded to UTF-8, trailing garbage
/// rejected). Returns kParse errors with a byte offset on malformed
/// input.
[[nodiscard]] Result<JsonValue> parse_json(std::string_view text);

// Typed member accessors for decoding wire documents (the canonical
// config codecs and the lrtd frame protocol). parse_json already
// rejected malformed text, so every failure here is a *schema*
// violation and reports kInvalidArgument naming the `where` path.

/// Required member lookup; `where` prefixes the error ("request.spec").
[[nodiscard]] Result<const JsonValue*> json_member(const JsonValue& object,
                                                   std::string_view key,
                                                   std::string_view where);
[[nodiscard]] Result<std::string> json_member_string(
    const JsonValue& object, std::string_view key, std::string_view where);
[[nodiscard]] Result<std::int64_t> json_member_int(const JsonValue& object,
                                                   std::string_view key,
                                                   std::string_view where);
[[nodiscard]] Result<double> json_member_double(const JsonValue& object,
                                                std::string_view key,
                                                std::string_view where);
[[nodiscard]] Result<bool> json_member_bool(const JsonValue& object,
                                            std::string_view key,
                                            std::string_view where);
/// Largest integer magnitude a JSON number carries exactly: 2^53 - 1.
/// JsonValue stores numbers as doubles, so larger integer literals may
/// have been rounded by parse_json.
inline constexpr std::int64_t kJsonMaxExactInt = (std::int64_t{1} << 53) - 1;

/// A number that must be integral with magnitude <= kJsonMaxExactInt;
/// kInvalidArgument otherwise (larger values may have been rounded).
[[nodiscard]] Result<std::int64_t> json_to_int(const JsonValue& value,
                                               std::string_view where);
/// Verifies `object` carries `"schema": version`.
[[nodiscard]] Status json_check_schema(const JsonValue& object,
                                       std::int64_t version,
                                       std::string_view where);

}  // namespace lrt

#endif  // LRT_SUPPORT_JSON_H_
