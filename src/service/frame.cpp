#include "service/frame.h"

#include <cerrno>
#include <cstdint>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace lrt::service {

namespace {

/// Reads exactly `size` bytes. Returns false on EOF before the first
/// byte (only meaningful with allow_eof), errors on EOF mid-read.
Result<bool> read_all(int fd, char* data, std::size_t size,
                      bool allow_eof) {
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return UnavailableError("connection reset mid-frame");
      }
      return InternalError(std::string("frame read failed: ") +
                           std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && allow_eof) return false;
      return UnavailableError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Status write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return InvalidArgumentError("frame payload exceeds " +
                                std::to_string(kMaxFramePayload) +
                                " bytes");
  }
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>(size >> 24),
                    static_cast<char>(size >> 16),
                    static_cast<char>(size >> 8),
                    static_cast<char>(size)};
  // Prefix and payload leave in one sendmsg; a short send resumes from
  // the first unsent byte, whichever of the two it falls in.
  // MSG_NOSIGNAL turns a closed peer into EPIPE instead of SIGPIPE, so
  // the caller gets kUnavailable whether or not it ignores the signal.
  iovec parts[2] = {{prefix, sizeof prefix},
                    {const_cast<char*>(payload.data()), payload.size()}};
  iovec* next = parts;
  iovec* const end = parts + 2;
  while (next != end) {
    msghdr message{};
    message.msg_iov = next;
    message.msg_iovlen = static_cast<std::size_t>(end - next);
    const ::ssize_t written = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return UnavailableError("peer closed the connection");
      }
      return InternalError(std::string("frame write failed: ") +
                           std::strerror(errno));
    }
    auto left = static_cast<std::size_t>(written);
    while (next != end && left >= next->iov_len) {
      left -= next->iov_len;
      ++next;
    }
    if (next != end) {
      next->iov_base = static_cast<char*>(next->iov_base) + left;
      next->iov_len -= left;
    }
  }
  return Status::Ok();
}

Result<std::optional<std::string>> read_frame(int fd) {
  char prefix[4];
  LRT_ASSIGN_OR_RETURN(
      const bool have_frame,
      read_all(fd, prefix, sizeof prefix, /*allow_eof=*/true));
  if (!have_frame) return std::optional<std::string>();
  const std::uint32_t size =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0]))
       << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
       << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]));
  if (size > kMaxFramePayload) {
    return InvalidArgumentError("frame length " + std::to_string(size) +
                                " exceeds the " +
                                std::to_string(kMaxFramePayload) +
                                "-byte limit");
  }
  std::string payload(size, '\0');
  LRT_ASSIGN_OR_RETURN(const bool complete,
                       read_all(fd, payload.data(), payload.size(),
                                /*allow_eof=*/false));
  (void)complete;
  return std::optional<std::string>(std::move(payload));
}

}  // namespace lrt::service
