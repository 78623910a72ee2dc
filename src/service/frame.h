// Length-prefixed framing for the lrtd wire protocol (DESIGN.md §5k).
//
// One frame = a 4-byte big-endian payload length followed by that many
// bytes of UTF-8 JSON. The prefix makes message boundaries explicit on
// a stream socket, so neither side ever scans payload bytes for a
// terminator, and an oversized length is rejected before any payload is
// read — the omission-failure stance of the related work: a truncated
// or garbled peer produces a typed error, never a hang on garbage.
#ifndef LRT_SERVICE_FRAME_H_
#define LRT_SERVICE_FRAME_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "support/status.h"

namespace lrt::service {

/// Frames larger than this are rejected on read (kInvalidArgument) and
/// refused on write — a defense against a desynchronized peer whose
/// "length" is really payload bytes.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// Writes one frame to the socket `fd`: prefix and payload in one
/// sendmsg(), resumed after EINTR and partial sends. kUnavailable on a
/// closed peer (EPIPE/ECONNRESET; never SIGPIPE), kInternal on other I/O
/// errors, kInvalidArgument (nothing written) above kMaxFramePayload.
[[nodiscard]] Status write_frame(int fd, std::string_view payload);

/// Reads one frame. nullopt on clean EOF at a frame boundary;
/// kUnavailable on a connection reset or EOF mid-frame; kInvalidArgument
/// on an oversized length prefix.
[[nodiscard]] Result<std::optional<std::string>> read_frame(int fd);

}  // namespace lrt::service

#endif  // LRT_SERVICE_FRAME_H_
