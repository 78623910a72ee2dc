#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/sink.h"
#include "service/frame.h"
#include "service/protocol.h"

namespace lrt::service {

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      slots_(options_.threads != 0
                 ? options_.threads
                 : std::max(1u, std::thread::hardware_concurrency())) {}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));
  LRT_RETURN_IF_ERROR(server->Bind());
  server->listener_ = std::thread([raw = server.get()] {
    raw->listener_loop();
  });
  return server;
}

Status Server::Bind() {
  if (options_.socket_path.empty()) {
    return InvalidArgumentError("ServerOptions::socket_path is required");
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("socket path '" + options_.socket_path +
                                "' exceeds the AF_UNIX path limit");
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket() failed: ") +
                         std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return InternalError("bind('" + options_.socket_path +
                         "') failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return InternalError(std::string("listen() failed: ") +
                         std::strerror(errno));
  }
  return Status::Ok();
}

void Server::listener_loop() {
  while (true) {
    pollfd poll_fd{listen_fd_, POLLIN, 0};
    // On a timeout or EINTR, fall through to reap and re-check draining_.
    const int fd = ::poll(&poll_fd, 1, /*timeout_ms=*/100) > 0
                       ? ::accept(listen_fd_, nullptr, nullptr)
                       : -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    // A finished thread keeps its stack until it is joined. A reader
    // sets done under mutex_ and takes it no more, so this join is short.
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (!it->done) {
        ++it;
        continue;
      }
      it->thread.join();
      it = readers_.erase(it);
    }
    if (draining_) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) continue;
    Reader& reader = readers_.emplace_back(fd);
    reader.thread = std::thread([this, &reader] { reader_loop(reader); });
  }
}

void Server::reader_loop(Reader& reader) {
  const int fd = reader.fd;
  obs::Sink* sink = obs::resolve_sink(options_.service.sink);
  while (true) {
    Result<std::optional<std::string>> frame = read_frame(fd);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        // Oversized length prefix: the stream is beyond resync; answer
        // once, then drop the connection.
        (void)write_frame(fd, make_error_frame(std::nullopt, frame.status()));
      }
      break;
    }
    if (!frame->has_value()) break;  // clean EOF
    const std::string payload = std::move(**frame);

    Status admission = Status::Ok();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) {
        admission = UnavailableError("server is shutting down");
      } else if (pending_ >= options_.max_pending) {
        admission = UnavailableError(
            "server overloaded: " + std::to_string(pending_) +
            " requests pending; retry later");
      } else {
        ++pending_;
      }
    }
    if (!admission.ok()) {
      // Load shed: the request never reaches the service.
      if (sink != nullptr) sink->counter_add("service.shed");
      (void)write_frame(fd, make_error_frame(extract_request_id(payload),
                                             admission));
      continue;
    }

    slots_.acquire();
    const ServiceReply reply = service_.handle(payload);
    slots_.release();
    (void)write_frame(fd, reply.frame);

    const std::lock_guard<std::mutex> lock(mutex_);
    --pending_;
    if (reply.shutdown) draining_ = true;
    finish_if_drained_locked();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ::close(fd);
  reader.fd = -1;
  reader.done = true;
}

void Server::finish_if_drained_locked() {
  if (!draining_ || pending_ != 0 || drained_) return;
  drained_ = true;
  done_cv_.notify_all();
  // Wake the listener's poll() now instead of at its next timeout.
  ::shutdown(listen_fd_, SHUT_RDWR);
  // Unblock every reader parked in read(); they exit via EOF.
  for (const Reader& reader : readers_) {
    if (reader.fd >= 0) ::shutdown(reader.fd, SHUT_RDWR);
  }
}

void Server::Stop() {
  const std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  finish_if_drained_locked();
}

void Server::Wait() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return drained_; });
    if (joined_) return;
    joined_ = true;
  }
  // Once the listener is joined, readers_ no longer changes shape; the
  // readers still running write only their own fd and done fields.
  if (listener_.joinable()) listener_.join();
  for (Reader& reader : readers_) reader.thread.join();
  readers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
}

Server::~Server() {
  Stop();
  Wait();
}

}  // namespace lrt::service
