#include "service/protocol.h"

#include <array>
#include <utility>

namespace lrt::service {
namespace {

constexpr std::array<std::pair<Verb, const char*>, 8> kVerbNames = {{
    {Verb::kPing, "ping"},
    {Verb::kAnalyze, "analyze"},
    {Verb::kSynthesize, "synthesize"},
    {Verb::kValidate, "validate"},
    {Verb::kLint, "lint"},
    {Verb::kUpdateCheck, "update_check"},
    {Verb::kBatch, "batch"},
    {Verb::kShutdown, "shutdown"},
}};

}  // namespace

const char* verb_name(Verb verb) {
  for (const auto& [v, name] : kVerbNames) {
    if (v == verb) return name;
  }
  return "ping";
}

std::optional<Verb> verb_from_name(std::string_view name) {
  for (const auto& [v, n] : kVerbNames) {
    if (name == n) return v;
  }
  return std::nullopt;
}

Result<Request> parse_request(const JsonValue& document,
                              std::string_view where) {
  if (!document.is_object()) {
    return InvalidArgumentError(std::string(where) +
                                " must be a JSON object");
  }
  LRT_RETURN_IF_ERROR(
      json_check_schema(document, kWireSchemaVersion, where));
  Request request;
  LRT_ASSIGN_OR_RETURN(request.id,
                       json_member_string(document, "id", where));
  LRT_ASSIGN_OR_RETURN(const std::string verb,
                       json_member_string(document, "verb", where));
  const std::optional<Verb> parsed = verb_from_name(verb);
  if (!parsed.has_value()) {
    return InvalidArgumentError(std::string(where) + ".verb: unknown verb '" +
                                verb + "'");
  }
  request.verb = *parsed;
  if (const JsonValue* deadline = document.find("deadline_ms")) {
    LRT_ASSIGN_OR_RETURN(
        const std::int64_t ms,
        json_to_int(*deadline, std::string(where) + ".deadline_ms"));
    if (ms < 0) {
      return InvalidArgumentError(std::string(where) +
                                  ".deadline_ms must be >= 0");
    }
    request.deadline_ms = ms;
  }
  request.body = &document;
  return request;
}

void begin_ok_frame(std::string_view id, JsonWriter& json) {
  json.begin_object();
  json.key("schema");
  json.value(kWireSchemaVersion);
  json.key("id");
  json.value(id);
  json.key("ok");
  json.value(true);
  json.key("result");
}

std::string make_ok_frame(std::string_view id,
                          std::string_view result_json) {
  JsonWriter json;
  begin_ok_frame(id, json);
  json.raw(result_json);
  json.end_object();
  return std::move(json).str();
}

std::string make_error_frame(const std::optional<std::string>& id,
                             const Status& error) {
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(kWireSchemaVersion);
  json.key("id");
  if (id.has_value()) {
    json.value(*id);
  } else {
    json.null();
  }
  json.key("ok");
  json.value(false);
  json.key("error");
  json.begin_object();
  json.key("code");
  json.value(status_code_name(error.code()));
  json.key("message");
  json.value(error.message());
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

std::optional<std::string> extract_request_id(std::string_view frame) {
  Result<JsonValue> parsed = parse_json(frame);
  if (!parsed.ok()) return std::nullopt;
  const JsonValue* id = parsed->find("id");
  if (id == nullptr || !id->is_string()) return std::nullopt;
  return id->string;
}

std::string format_fingerprint(std::uint64_t fingerprint) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[fingerprint & 0xF];
    fingerprint >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> parse_fingerprint(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return value;
}

}  // namespace lrt::service
