// The lrtd service's two core claims, measured (DESIGN.md §5k):
//
//   * incrementality: on a resident 200-task workload, a delta analyze
//     (mutate one task's host set) must be two orders of magnitude
//     cheaper than a cold-miss full analysis (ship the whole spec +
//     arch + implementation and rebuild), because the resident
//     SrgEvaluator only re-propagates the dirty cone;
//   * full reports follow the dirty cone: a delta analyze with
//     "full_report": true re-encodes only the report rows whose SRG
//     changed since the last report (the resident's report cache) and
//     writes the ~20 KB frame once, so it must stay within a small
//     factor of an equally real compact delta instead of paying to
//     serialize or copy every communicator;
//   * a replay is free: the same full-report request resent under its
//     id returns the cached frame's buffer itself, so it must cost no
//     more than a compact delta;
//   * determinism: the same single-connection request log answered by a
//     1-thread server and an 8-thread server must produce byte-identical
//     response streams — the thread count is a pure throughput knob;
//   * the transport is thin: a compact delta's socket round trip, over
//     the same delta handled in process, stays within a small factor,
//     since the connection's reader thread handles the request itself.
//
// Also reports closed-loop socket throughput (requests/sec, p50/p99/p999
// latency) for the hot path. `--json <path>` writes the summary gated in
// CI against baselines/BENCH_service.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "arch/arch_json.h"
#include "bench/bench_util.h"
#include "gen/workload.h"
#include "impl/impl_json.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "spec/spec_json.h"
#include "support/json.h"
#include "support/rng.h"

namespace {

using namespace lrt;

constexpr int kHitSamples = 64;
constexpr int kRoundSamples = 8;
constexpr int kColdSamples = 8;
constexpr int kLogMutates = 50;
constexpr int kThroughputRequests = 400;

struct Corpus {
  std::string spec_json;
  std::string arch_json;
  std::string impl_json;
  std::vector<std::string> tasks;
  std::vector<std::string> hosts;
};

Corpus make_corpus() {
  Xoshiro256 rng(2008);
  gen::WorkloadOptions options;
  // 10 layers x 20 tasks: the 200-task workload from the acceptance bar.
  options.min_layers = 10;
  options.max_layers = 10;
  options.min_tasks_per_layer = 20;
  options.max_tasks_per_layer = 20;
  options.min_hosts = 4;
  options.max_hosts = 4;
  auto workload = gen::random_workload(rng, options);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().to_string().c_str());
    std::exit(1);
  }
  Corpus corpus;
  corpus.spec_json = spec::to_json(workload->specification->to_config());
  corpus.arch_json = arch::to_json(workload->architecture_config);
  corpus.impl_json = impl::to_json(workload->implementation_config);
  for (const auto& mapping :
       workload->implementation_config.task_mappings) {
    corpus.tasks.push_back(mapping.task);
  }
  for (const auto& host : workload->architecture_config.hosts) {
    corpus.hosts.push_back(host.name);
  }
  return corpus;
}

std::string cold_frame(const Corpus& corpus, const std::string& id) {
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(service::kWireSchemaVersion);
  json.key("id");
  json.value(id);
  json.key("verb");
  json.value("analyze");
  json.key("spec");
  json.raw(corpus.spec_json);
  json.key("arch");
  json.raw(corpus.arch_json);
  json.key("implementation");
  json.raw(corpus.impl_json);
  json.end_object();
  return std::move(json).str();
}

std::string mutate_frame(const Corpus& corpus,
                         const std::string& fingerprint,
                         const std::string& id, std::size_t step,
                         bool full_report = false) {
  const std::string& task = corpus.tasks[step % corpus.tasks.size()];
  const std::string& host =
      corpus.hosts[(step / corpus.tasks.size()) % corpus.hosts.size()];
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(service::kWireSchemaVersion);
  json.key("id");
  json.value(id);
  json.key("verb");
  json.value("analyze");
  json.key("fingerprint");
  json.value(fingerprint);
  json.key("mutate");
  json.begin_object();
  json.key("task");
  json.value(task);
  json.key("hosts");
  json.begin_array();
  json.value(host);
  json.end_array();
  json.end_object();
  if (full_report) {
    json.key("full_report");
    json.value(true);
  }
  json.end_object();
  return std::move(json).str();
}

std::string ping_frame(const std::string& id) {
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(service::kWireSchemaVersion);
  json.key("id");
  json.value(id);
  json.key("verb");
  json.value("ping");
  json.end_object();
  return std::move(json).str();
}

std::string response_fingerprint(std::string_view frame) {
  const auto document = parse_json(frame);
  if (!document.ok()) return "";
  const JsonValue* result = document->find("result");
  if (result == nullptr) return "";
  const JsonValue* fingerprint = result->find("fingerprint");
  if (fingerprint == nullptr || !fingerprint->is_string()) return "";
  return fingerprint->string;
}

double median_us(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double percentile(const std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted_us.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  return sorted_us[lo] +
         (sorted_us[hi] - sorted_us[lo]) *
             (rank - static_cast<double>(lo));
}

double handle_us(service::Service& service, const std::string& frame) {
  const auto start = std::chrono::steady_clock::now();
  const service::ServiceReply reply = service.handle(frame);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (reply.frame.find("\"ok\":true") == std::string_view::npos) {
    std::fprintf(stderr, "request failed: %.*s\n",
                 static_cast<int>(reply.frame.size()), reply.frame.data());
    std::exit(1);
  }
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

/// The same single-connection log the differential harness replays
/// through both servers: one cold analysis, then rotating mutates
/// interleaved with pings.
std::vector<std::string> make_request_log(const Corpus& corpus,
                                          const std::string& fingerprint) {
  std::vector<std::string> log;
  log.push_back(cold_frame(corpus, "log-cold"));
  for (int i = 0; i < kLogMutates; ++i) {
    log.push_back(mutate_frame(corpus, fingerprint,
                               "log-mut-" + std::to_string(i),
                               static_cast<std::size_t>(i)));
    if (i % 10 == 0) {
      log.push_back(ping_frame("log-ping-" + std::to_string(i)));
    }
  }
  return log;
}

/// Replays the log over one connection against a fresh server handling
/// `threads` requests at once; returns the concatenated response stream.
std::string replay_log(const std::vector<std::string>& log,
                       unsigned threads) {
  service::ServerOptions options;
  options.socket_path = "/tmp/lrt_bench_service_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(threads) + ".sock";
  options.threads = threads;
  auto server = service::Server::Start(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().to_string().c_str());
    std::exit(1);
  }
  auto client = service::Client::Connect((*server)->socket_path());
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().to_string().c_str());
    std::exit(1);
  }
  std::string stream;
  for (const std::string& frame : log) {
    auto response = client->call(frame);
    if (!response.ok()) {
      std::fprintf(stderr, "call failed: %s\n",
                   response.status().to_string().c_str());
      std::exit(1);
    }
    stream += *response;
    stream += '\n';
  }
  (*server)->Stop();
  (*server)->Wait();
  return stream;
}

struct Numbers {
  long long tasks = 0;
  double cold_us = 0.0;
  double hit_us = 0.0;
  double hit_speedup = 0.0;
  double full_hit_us = 0.0;
  double full_hit_ratio = 0.0;
  double full_replay_us = 0.0;
  double full_replay_ratio = 0.0;
  bool identical = false;
  long long requests = 0;
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double socket_over_hit = 0.0;
};

Numbers g_numbers;

void run_experiment() {
  const Corpus corpus = make_corpus();
  g_numbers.tasks = static_cast<long long>(corpus.tasks.size());

  // -- incrementality: cold-miss full analysis vs cache-hit delta.
  service::Service service{service::ServiceOptions{}};
  std::vector<double> cold_us;
  std::string fingerprint;
  for (int i = 0; i < kColdSamples; ++i) {
    const std::string frame =
        cold_frame(corpus, "cold-" + std::to_string(i));
    const auto start = std::chrono::steady_clock::now();
    const service::ServiceReply reply = service.handle(frame);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    cold_us.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
    fingerprint = response_fingerprint(reply.frame);
    if (fingerprint.empty()) {
      std::fprintf(stderr, "cold analyze failed: %.*s\n",
                   static_cast<int>(reply.frame.size()), reply.frame.data());
      std::exit(1);
    }
  }
  // Every timed delta moves a task to a host it is not on: an untimed
  // pass first puts every task on hosts[0], and the timed steps then move
  // task after task to hosts[1], so each one propagates. Compact and
  // full-report deltas alternate, as lrtd_resident mixes them, so a
  // full-report delta re-encodes the rows that it and the compact delta
  // before it changed; then each round's full-report requests are resent
  // under their ids, answered from the replay cache without running the
  // verb. Short rounds keep the three kinds' medians on the same machine
  // state.
  const std::size_t first_step = corpus.tasks.size();
  for (std::size_t step = 0; step < first_step; ++step) {
    handle_us(service, mutate_frame(corpus, fingerprint,
                                    "place-" + std::to_string(step), step));
  }
  std::vector<double> hit_us;
  std::vector<double> full_hit_us;
  std::vector<double> full_replay_us;
  for (int round = 0; round < kHitSamples; round += kRoundSamples) {
    std::vector<std::string> full;
    for (int i = round; i < round + kRoundSamples; ++i) {
      const std::size_t step = first_step + 2 * static_cast<std::size_t>(i);
      hit_us.push_back(handle_us(
          service, mutate_frame(corpus, fingerprint,
                                "hit-" + std::to_string(i), step)));
      full.push_back(mutate_frame(corpus, fingerprint,
                                  "full-hit-" + std::to_string(i), step + 1,
                                  true));
      full_hit_us.push_back(handle_us(service, full.back()));
    }
    for (const std::string& frame : full) {
      full_replay_us.push_back(handle_us(service, frame));
    }
  }
  g_numbers.cold_us = median_us(cold_us);
  g_numbers.hit_us = median_us(hit_us);
  g_numbers.hit_speedup = g_numbers.cold_us / g_numbers.hit_us;
  g_numbers.full_hit_us = median_us(full_hit_us);
  g_numbers.full_hit_ratio = g_numbers.full_hit_us / g_numbers.hit_us;
  g_numbers.full_replay_us = median_us(full_replay_us);
  g_numbers.full_replay_ratio = g_numbers.full_replay_us / g_numbers.hit_us;

  // -- determinism: 1-thread vs 8-thread response streams.
  const std::vector<std::string> log =
      make_request_log(corpus, fingerprint);
  const std::string serial = replay_log(log, 1);
  const std::string parallel = replay_log(log, 8);
  g_numbers.identical = serial == parallel;

  // -- closed-loop socket throughput on the hot path.
  {
    service::ServerOptions options;
    options.socket_path = "/tmp/lrt_bench_service_" +
                          std::to_string(::getpid()) + "_tp.sock";
    options.threads = 8;
    auto server = service::Server::Start(std::move(options));
    if (!server.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   server.status().to_string().c_str());
      std::exit(1);
    }
    auto client = service::Client::Connect((*server)->socket_path());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().to_string().c_str());
      std::exit(1);
    }
    auto primed = client->call(cold_frame(corpus, "tp-prime"));
    const std::string tp_fingerprint =
        primed.ok() ? response_fingerprint(*primed) : "";
    if (tp_fingerprint.empty()) {
      std::fprintf(stderr, "throughput prime failed\n");
      std::exit(1);
    }
    // An in-process twin of the server's Service handles each frame
    // right after its round trip, so the two medians see the same deltas
    // in the same machine state and their ratio is the transport's cost.
    service::Service twin{service::ServiceOptions{}};
    handle_us(twin, cold_frame(corpus, "tp-prime"));
    std::vector<double> latencies_us;
    std::vector<double> twin_us;
    for (int i = 0; i < kThroughputRequests; ++i) {
      const std::string frame =
          mutate_frame(corpus, tp_fingerprint,
                       "tp-" + std::to_string(i),
                       static_cast<std::size_t>(i));
      const auto start = std::chrono::steady_clock::now();
      auto response = client->call(frame);
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (!response.ok()) {
        std::fprintf(stderr, "throughput call failed: %s\n",
                     response.status().to_string().c_str());
        std::exit(1);
      }
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(elapsed).count());
      twin_us.push_back(handle_us(twin, frame));
    }
    (*server)->Stop();
    (*server)->Wait();
    double call_us = 0.0;
    for (const double us : latencies_us) call_us += us;
    std::sort(latencies_us.begin(), latencies_us.end());
    g_numbers.requests = kThroughputRequests;
    g_numbers.throughput_rps =
        static_cast<double>(kThroughputRequests) / (call_us * 1e-6);
    g_numbers.p50_us = percentile(latencies_us, 0.50);
    g_numbers.p99_us = percentile(latencies_us, 0.99);
    g_numbers.p999_us = percentile(latencies_us, 0.999);
    g_numbers.socket_over_hit = g_numbers.p50_us / median_us(twin_us);
  }
}

void print_table() {
  bench::header("SERVICE", "lrtd dispatch: incrementality + determinism");
  run_experiment();
  std::printf("  workload: %lld tasks\n", g_numbers.tasks);
  std::printf("  cold-miss full analysis: %10.1f us (median of %d)\n",
              g_numbers.cold_us, kColdSamples);
  std::printf("  cache-hit delta analyze: %10.1f us (median of %d)\n",
              g_numbers.hit_us, kHitSamples);
  std::printf("  hit speedup:             %10.1fx (floor: 100x)\n",
              g_numbers.hit_speedup);
  std::printf("  full-report delta:       %10.1f us (median of %d, "
              "%.1fx the compact delta)\n",
              g_numbers.full_hit_us, kHitSamples, g_numbers.full_hit_ratio);
  std::printf("  full-report replay:      %10.1f us (median of %d, "
              "%.2fx the compact delta)\n",
              g_numbers.full_replay_us, kHitSamples,
              g_numbers.full_replay_ratio);
  std::printf("  1-thread vs 8-thread response streams: %s\n",
              g_numbers.identical ? "IDENTICAL" : "DIVERGED");
  std::printf("  socket throughput: %.0f req/s over %lld requests\n",
              g_numbers.throughput_rps, g_numbers.requests);
  std::printf("  latency: p50 %.1f us  p99 %.1f us  p999 %.1f us\n",
              g_numbers.p50_us, g_numbers.p99_us, g_numbers.p999_us);
  std::printf("  socket p50 over in-process delta: %.2fx\n",
              g_numbers.socket_over_hit);
}

bool write_json(const std::string& path) {
  bench::JsonWriter json;
  json.text("benchmark", "service_throughput");
  json.integer("tasks", g_numbers.tasks);
  json.number("cold_us", g_numbers.cold_us);
  json.number("hit_us", g_numbers.hit_us);
  json.number("hit_speedup", g_numbers.hit_speedup);
  json.number("full_hit_us", g_numbers.full_hit_us);
  json.number("full_hit_ratio", g_numbers.full_hit_ratio);
  json.number("full_replay_us", g_numbers.full_replay_us);
  json.number("full_replay_ratio", g_numbers.full_replay_ratio);
  json.integer("identical", g_numbers.identical ? 1 : 0);
  json.integer("requests", g_numbers.requests);
  json.number("throughput_rps", g_numbers.throughput_rps);
  json.number("p50_us", g_numbers.p50_us);
  json.number("p99_us", g_numbers.p99_us);
  json.number("p999_us", g_numbers.p999_us);
  json.number("socket_over_hit", g_numbers.socket_over_hit);
  return json.write(path);
}

void BM_AnalyzeHit(benchmark::State& state) {
  const Corpus corpus = make_corpus();
  service::Service service{service::ServiceOptions{}};
  const service::ServiceReply primed =
      service.handle(cold_frame(corpus, "bm-prime"));
  const std::string fingerprint = response_fingerprint(primed.frame);
  std::size_t step = 0;
  for (auto _ : state) {
    const service::ServiceReply reply = service.handle(
        mutate_frame(corpus, fingerprint,
                     "bm-hit-" + std::to_string(step), step));
    benchmark::DoNotOptimize(reply.frame.data());
    ++step;
  }
}
BENCHMARK(BM_AnalyzeHit)->Unit(benchmark::kMicrosecond);

void BM_AnalyzeCold(benchmark::State& state) {
  const Corpus corpus = make_corpus();
  service::Service service{service::ServiceOptions{}};
  std::size_t step = 0;
  for (auto _ : state) {
    const service::ServiceReply reply = service.handle(
        cold_frame(corpus, "bm-cold-" + std::to_string(step)));
    benchmark::DoNotOptimize(reply.frame.data());
    ++step;
  }
}
BENCHMARK(BM_AnalyzeCold)->Unit(benchmark::kMillisecond);

}  // namespace

LRT_BENCH_MAIN_JSON(print_table, write_json)
