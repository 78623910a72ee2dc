#include "support/json.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "support/strings.h"

namespace lrt {

void JsonWriter::comma_if_needed() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_elements_.empty()) {
    if (has_elements_.back()) out_ += ',';
    has_elements_.back() = true;
  }
}

void JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  has_elements_.push_back(false);
}

void JsonWriter::end_object() {
  assert(!has_elements_.empty());
  has_elements_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  has_elements_.push_back(false);
}

void JsonWriter::end_array() {
  assert(!has_elements_.empty());
  has_elements_.pop_back();
  out_ += ']';
}

void JsonWriter::key(std::string_view name) {
  assert(!after_key_ && "key() must be followed by a value");
  if (!has_elements_.empty()) {
    if (has_elements_.back()) out_ += ',';
    has_elements_.back() = true;
  }
  out_ += '"';
  write_escaped(name);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::value(std::string_view text) {
  comma_if_needed();
  out_ += '"';
  write_escaped(text);
  out_ += '"';
}

void JsonWriter::value(double number) {
  comma_if_needed();
  if (std::isfinite(number)) {
    char buffer[kFormatDoubleMax];
    out_.append(buffer, format_double(number, buffer));
  } else {
    out_ += "null";  // JSON has no Inf/NaN
  }
}

void JsonWriter::value(std::int64_t number) {
  comma_if_needed();
  out_ += std::to_string(number);
}

void JsonWriter::value(bool flag) {
  comma_if_needed();
  out_ += flag ? "true" : "false";
}

void JsonWriter::null() {
  comma_if_needed();
  out_ += "null";
}

void JsonWriter::raw(std::string_view json) {
  comma_if_needed();
  out_ += json;
}

std::string JsonWriter::str() && {
  assert(has_elements_.empty() && "unclosed container");
  assert(!after_key_ && "dangling key");
  return std::move(out_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object)
    if (name == key) return &value;
  return nullptr;
}

namespace {

/// Recursive-descent JSON reader over a string_view.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> run() {
    JsonValue value;
    LRT_RETURN_IF_ERROR(parse_value(value, /*depth=*/0));
    skip_whitespace();
    if (pos_ != text_.size())
      return error("trailing characters after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status error(const std::string& message) const {
    return ParseError("json: " + message + " at offset " +
                      std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal)
      return error("invalid literal");
    pos_ += literal.size();
    return Status::Ok();
  }

  Status parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return error("nesting too deep");
    skip_whitespace();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return expect_literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return expect_literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return expect_literal("null");
      default: return parse_number(out);
    }
  }

  Status parse_object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_whitespace();
    if (consume('}')) return Status::Ok();
    while (true) {
      skip_whitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return error("expected object key");
      LRT_RETURN_IF_ERROR(parse_string(key));
      skip_whitespace();
      if (!consume(':')) return error("expected ':'");
      JsonValue value;
      LRT_RETURN_IF_ERROR(parse_value(value, depth + 1));
      out.object.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (consume('}')) return Status::Ok();
      if (!consume(',')) return error("expected ',' or '}'");
    }
  }

  Status parse_array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_whitespace();
    if (consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      LRT_RETURN_IF_ERROR(parse_value(value, depth + 1));
      out.array.push_back(std::move(value));
      skip_whitespace();
      if (consume(']')) return Status::Ok();
      if (!consume(',')) return error("expected ',' or ']'");
    }
  }

  Status parse_string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return error("unescaped control character in string");
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return error("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          LRT_RETURN_IF_ERROR(parse_hex4(code));
          append_utf8(out, code);
          break;
        }
        default: return error("invalid escape");
      }
    }
    return error("unterminated string");
  }

  Status parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4U;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return error("invalid \\u escape");
      }
    }
    return Status::Ok();
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0U | (code >> 6U));
      out += static_cast<char>(0x80U | (code & 0x3FU));
    } else {
      out += static_cast<char>(0xE0U | (code >> 12U));
      out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
      out += static_cast<char>(0x80U | (code & 0x3FU));
    }
  }

  Status parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
      // fall through to digits
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
      return error("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9')
        ++pos_;
    }
    if (consume('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return error("invalid fraction");
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return error("invalid exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9')
        ++pos_;
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                             nullptr);
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).run();
}

namespace {

std::string member_path(std::string_view where, std::string_view key) {
  std::string path(where);
  if (!path.empty()) path += '.';
  path += key;
  return path;
}

}  // namespace

Result<const JsonValue*> json_member(const JsonValue& object,
                                     std::string_view key,
                                     std::string_view where) {
  if (!object.is_object()) {
    return InvalidArgumentError(std::string(where) + " must be an object");
  }
  const JsonValue* member = object.find(key);
  if (member == nullptr) {
    return InvalidArgumentError(member_path(where, key) + " is missing");
  }
  return member;
}

Result<std::string> json_member_string(const JsonValue& object,
                                       std::string_view key,
                                       std::string_view where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  if (!member->is_string()) {
    return InvalidArgumentError(member_path(where, key) +
                                " must be a string");
  }
  return member->string;
}

Result<std::int64_t> json_member_int(const JsonValue& object,
                                     std::string_view key,
                                     std::string_view where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  return json_to_int(*member, member_path(where, key));
}

Result<double> json_member_double(const JsonValue& object,
                                  std::string_view key,
                                  std::string_view where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  if (!member->is_number()) {
    return InvalidArgumentError(member_path(where, key) +
                                " must be a number");
  }
  return member->number;
}

Result<bool> json_member_bool(const JsonValue& object, std::string_view key,
                              std::string_view where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  if (member->kind != JsonValue::Kind::kBool) {
    return InvalidArgumentError(member_path(where, key) +
                                " must be a boolean");
  }
  return member->boolean;
}

Result<std::int64_t> json_to_int(const JsonValue& value,
                                 std::string_view where) {
  if (!value.is_number()) {
    return InvalidArgumentError(std::string(where) + " must be a number");
  }
  const double number = value.number;
  if (number != std::floor(number)) {
    return InvalidArgumentError(std::string(where) +
                                " must be an integer");
  }
  // parse_json stores numbers as doubles, so a literal beyond 2^53 - 1
  // may already have been rounded to a neighbouring integer: refuse it
  // rather than act on a value the sender never wrote.
  if (std::fabs(number) > kJsonMaxExactInt) {
    return InvalidArgumentError(
        std::string(where) + " must be an integer of magnitude <= " +
        std::to_string(kJsonMaxExactInt) +
        " (larger JSON numbers are not exact)");
  }
  return static_cast<std::int64_t>(number);
}

Status json_check_schema(const JsonValue& object, std::int64_t version,
                         std::string_view where) {
  LRT_ASSIGN_OR_RETURN(const std::int64_t seen,
                       json_member_int(object, "schema", where));
  if (seen != version) {
    return InvalidArgumentError(
        std::string(where) + ".schema " + std::to_string(seen) +
        " is not supported (expected " + std::to_string(version) + ")");
  }
  return Status::Ok();
}

void JsonWriter::write_escaped(std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          out_ += buffer;
        } else {
          out_ += c;
        }
    }
  }
}

}  // namespace lrt
