// The lrtd transport: an AF_UNIX stream server delivering framed
// requests to a Service (DESIGN.md §5k).
//
// Threading model:
//  * one listener thread accepts connections and joins the reader
//    threads of connections that have closed;
//  * one reader thread per connection reads a frame, admits it, handles
//    it, and writes the reply before it reads the next frame. Each
//    connection is FIFO by construction: it has at most one request in
//    flight, so its response bytes are a function of its request
//    sequence alone. Frames a client pipelines wait in its socket
//    buffer;
//  * admission is global across connections: when ServerOptions::
//    max_pending requests are admitted, the reader sheds the frame with
//    a typed kUnavailable reply instead of queueing unbounded work;
//  * at most ServerOptions::threads admitted requests run in
//    Service::handle at once; the rest wait for an execution slot.
//
// Shutdown (the `shutdown` verb or Stop()) is graceful: the listener
// stops accepting, admitted requests drain, readers exit, and the
// socket path is unlinked.
#ifndef LRT_SERVICE_SERVER_H_
#define LRT_SERVICE_SERVER_H_

#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>

#include "service/service.h"
#include "support/status.h"

namespace lrt::service {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX socket; created on Start (an
  /// existing file at the path is replaced) and unlinked on shutdown.
  std::string socket_path;
  /// Requests handled at once; 0 picks
  /// std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Global bound on admitted requests (waiting for a slot or running);
  /// past it, new frames are answered with kUnavailable by the reader
  /// (load shed, counted as service.shed).
  std::size_t max_pending = 128;
  ServiceOptions service;
};

class Server {
 public:
  /// Binds the socket and starts the listener thread.
  [[nodiscard]] static Result<std::unique_ptr<Server>> Start(
      ServerOptions options);

  /// Stops (if still running), joins every thread, closes every fd, and
  /// unlinks the socket path.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Begins a graceful shutdown: stop accepting, drain admitted
  /// requests. Idempotent; returns without waiting.
  void Stop();

  /// Blocks until shutdown completes (triggered by the `shutdown` verb
  /// or Stop()) and joins every thread.
  void Wait();

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

 private:
  friend class ServerTestPeer;

  /// One accepted connection and the thread that serves it.
  struct Reader {
    explicit Reader(int connection_fd) : fd(connection_fd) {}
    std::thread thread;
    int fd;             ///< -1 once the reader has closed it
    bool done = false;  ///< the reader returned; join it
  };

  explicit Server(ServerOptions options);

  [[nodiscard]] Status Bind();
  void listener_loop();
  void reader_loop(Reader& reader);
  /// With mutex_ held: completes the drain once stopping and idle.
  void finish_if_drained_locked();

  ServerOptions options_;
  Service service_;
  std::counting_semaphore<> slots_;  ///< ServerOptions::threads

  int listen_fd_ = -1;
  std::thread listener_;

  std::mutex mutex_;
  std::condition_variable done_cv_;  ///< Wait(): drained_ only
  std::list<Reader> readers_;        ///< live or not yet joined
  std::size_t pending_ = 0;          ///< admitted, unanswered requests
  bool draining_ = false;
  bool drained_ = false;
  bool joined_ = false;
};

}  // namespace lrt::service

#endif  // LRT_SERVICE_SERVER_H_
