// lrtd: the batched multi-tenant analysis daemon (DESIGN.md §5k).
//
//   lrtd serve --socket /tmp/lrtd.sock [--threads N] [--max-pending N]
//        [--max-resident N] [--trace-out t.json] [--metrics-out m.json]
//   lrtd ping --socket /tmp/lrtd.sock
//   lrtd shutdown --socket /tmp/lrtd.sock
//
// `serve` blocks until a `shutdown` frame arrives (or SIGINT/SIGTERM),
// then drains gracefully and unlinks the socket. `ping` and `shutdown`
// are one-shot clients that print the response frame.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/session.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/argparse.h"
#include "support/json.h"
#include "support/status.h"

using namespace lrt;

namespace {

service::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->Stop();
}

std::string simple_request(std::string_view verb) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("schema");
  writer.value(service::kWireSchemaVersion);
  writer.key("id");
  writer.value(std::string("lrtd-cli-") + std::string(verb));
  writer.key("verb");
  writer.value(verb);
  writer.end_object();
  return std::move(writer).str();
}

int run_client_verb(const std::string& socket_path, std::string_view verb) {
  auto client = service::Client::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "lrtd %s: %s\n", std::string(verb).c_str(),
                 client.status().to_string().c_str());
    return 1;
  }
  const auto response = client->call(simple_request(verb));
  if (!response.ok()) {
    std::fprintf(stderr, "lrtd %s: %s\n", std::string(verb).c_str(),
                 response.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", response->c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("lrtd", "logical-reliability analysis daemon");

  ArgParser& serve = parser.add_subcommand(
      "serve", "bind the socket and serve requests until shutdown");
  std::string socket_path = "/tmp/lrtd.sock";
  std::int64_t threads = 0;
  std::int64_t max_pending = 128;
  std::int64_t max_resident = 8;
  obs::SessionOptions obs_options;
  serve.add_string("--socket", &socket_path, "AF_UNIX socket path");
  serve.add_int("--threads", &threads,
                "requests handled at once (0 = hardware concurrency)");
  serve.add_int("--max-pending", &max_pending,
                "admission-control bound on admitted requests");
  serve.add_int("--max-resident", &max_resident,
                "LRU bound on resident workload evaluators");
  obs::add_session_flags(serve, &obs_options);

  ArgParser& ping = parser.add_subcommand(
      "ping", "send one ping frame and print the response");
  std::string ping_socket = "/tmp/lrtd.sock";
  ping.add_string("--socket", &ping_socket, "AF_UNIX socket path");

  ArgParser& shutdown = parser.add_subcommand(
      "shutdown", "ask a running server to drain and exit");
  std::string shutdown_socket = "/tmp/lrtd.sock";
  shutdown.add_string("--socket", &shutdown_socket, "AF_UNIX socket path");

  const Status status = parser.parse(argc, argv);
  if (parser.help_requested()) {
    std::printf("%s", parser.usage().c_str());
    return 0;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "lrtd: %s\n%s", status.to_string().c_str(),
                 parser.usage().c_str());
    return 2;
  }

  if (parser.selected_subcommand() == "ping") {
    return run_client_verb(ping_socket, "ping");
  }
  if (parser.selected_subcommand() == "shutdown") {
    return run_client_verb(shutdown_socket, "shutdown");
  }

  // serve
  if (threads < 0 || max_pending <= 0 || max_resident <= 0) {
    std::fprintf(stderr,
                 "lrtd serve: --threads must be >= 0 and --max-pending/"
                 "--max-resident must be > 0\n");
    return 2;
  }
  const obs::ScopedSession session(obs_options);

  service::ServerOptions options;
  options.socket_path = socket_path;
  options.threads = static_cast<unsigned>(threads);
  options.max_pending = static_cast<std::size_t>(max_pending);
  options.service.max_resident_workloads =
      static_cast<std::size_t>(max_resident);
  auto server = service::Server::Start(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "lrtd serve: %s\n",
                 server.status().to_string().c_str());
    return 1;
  }
  std::printf("lrtd: serving on %s (%lld threads, %lld pending max)\n",
              (*server)->socket_path().c_str(),
              static_cast<long long>(threads),
              static_cast<long long>(max_pending));
  std::fflush(stdout);

  g_server = server->get();
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  (*server)->Wait();
  g_server = nullptr;
  std::printf("lrtd: drained, socket unlinked\n");
  return 0;
}
