// The lrtd wire vocabulary (DESIGN.md §5k): the request envelope, the
// verb set, and the two response shapes every reply uses.
//
// Request envelope (one JSON object per frame):
//   {"schema": 1, "id": "<caller-chosen>", "verb": "analyze",
//    "deadline_ms": 250, ...verb-specific fields...}
// `id` is required — it keys idempotent replay — and `deadline_ms` is
// optional, relative to the request's arrival at the service.
//
// Response envelope:
//   {"schema": 1, "id": <id|null>, "ok": true,  "result": {...}}
//   {"schema": 1, "id": <id|null>, "ok": false,
//    "error": {"code": "kInvalidArgument", "message": "..."}}
// Error codes travel as the wire-stable status_code_name() spellings; a
// null id means the request was too malformed to extract one.
#ifndef LRT_SERVICE_PROTOCOL_H_
#define LRT_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/json.h"
#include "support/status.h"

namespace lrt::service {

/// Version stamped on (and required from) every request and response
/// envelope. Distinct from spec::kConfigSchemaVersion: the envelope and
/// the config documents it embeds version independently.
inline constexpr std::int64_t kWireSchemaVersion = 1;

enum class Verb {
  kPing,
  kAnalyze,
  kSynthesize,
  kValidate,
  kLint,
  kUpdateCheck,
  kBatch,
  kShutdown,
};

/// Wire spelling ("update_check"); static storage, usable as a span name.
[[nodiscard]] const char* verb_name(Verb verb);
[[nodiscard]] std::optional<Verb> verb_from_name(std::string_view name);

/// The decoded envelope. `body` aliases the parsed request document (the
/// verb-specific fields live there); the document must outlive the
/// Request.
struct Request {
  std::string id;
  Verb verb = Verb::kPing;
  /// Relative deadline in milliseconds from arrival; nullopt = none.
  std::optional<std::int64_t> deadline_ms;
  const JsonValue* body = nullptr;
};

/// Decodes and validates the envelope fields. `where` prefixes error
/// paths ("request", "request.items[2]").
[[nodiscard]] Result<Request> parse_request(const JsonValue& document,
                                            std::string_view where);

/// Opens {"schema":1,"id":"...","ok":true,"result": in `json`, which
/// must be empty. The caller writes the result value, then closes the
/// envelope with json.end_object(): a verb writes its result straight
/// into the frame the transport sends.
void begin_ok_frame(std::string_view id, JsonWriter& json);

/// {"schema":1,"id":"...","ok":true,"result":<result_json>}. The caller
/// vouches that `result_json` is one well-formed JSON value.
[[nodiscard]] std::string make_ok_frame(std::string_view id,
                                        std::string_view result_json);

/// {"schema":1,"id":...,"ok":false,"error":{...}}. A nullopt id renders
/// as null. Precondition: !error.ok().
[[nodiscard]] std::string make_error_frame(
    const std::optional<std::string>& id, const Status& error);

/// Best-effort id recovery from a raw request frame, for error replies to
/// requests that never reach the service (the reader-side load shed).
/// nullopt when the frame does not parse to an object with a string id.
[[nodiscard]] std::optional<std::string> extract_request_id(
    std::string_view frame);

/// The cache key rendered for the wire: 16 lowercase hex digits.
[[nodiscard]] std::string format_fingerprint(std::uint64_t fingerprint);
[[nodiscard]] std::optional<std::uint64_t> parse_fingerprint(
    std::string_view text);

}  // namespace lrt::service

#endif  // LRT_SERVICE_PROTOCOL_H_
