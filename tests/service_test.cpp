// End-to-end tests for lrtd (DESIGN.md §5k): the Service request handler
// (wire envelope, fingerprint cache, delta analyzes, deadlines,
// idempotent replay) and the AF_UNIX Server transport (framing,
// admission control, thread-count-independent response bytes, in-order
// answers to pipelined frames, reader-thread reaping).
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <set>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "arch/arch_json.h"
#include "arch/architecture.h"
#include "gen/workload.h"
#include "impl/impl_json.h"
#include "impl/implementation.h"
#include "lrt/lrt.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "reliability/analysis.h"
#include "service/client.h"
#include "service/frame.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "spec/spec_json.h"
#include "spec/specification.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/status.h"

namespace lrt::service {

/// Reads Service internals that have no place on the public surface.
class ServiceTestPeer {
 public:
  static std::optional<std::size_t> trail_mark(const Service& service,
                                               std::uint64_t fingerprint) {
    return service.resident_trail_mark(fingerprint);
  }
  static std::size_t replay_bytes(const Service& service) {
    return service.replay_cache_bytes();
  }
};

/// Reads Server internals: the reader threads it still holds.
class ServerTestPeer {
 public:
  static std::size_t reader_threads(Server& server) {
    const std::lock_guard<std::mutex> lock(server.mutex_);
    return server.readers_.size();
  }
};

namespace {

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

/// The quickstart workload: two communicators, one mappable task, two
/// hosts — small enough that a cold analyze is microseconds.
spec::SpecificationConfig make_spec_config() {
  spec::SpecificationConfig config;
  config.name = "service_test";
  config.communicators = {
      {"s", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.95},
      {"level", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.90},
  };
  spec::SpecificationConfig::TaskConfig filter;
  filter.name = "filter";
  filter.inputs = {{"s", 0}};
  filter.outputs = {{"level", 1}};
  filter.model = spec::FailureModel::kSeries;
  config.tasks.push_back(std::move(filter));
  return config;
}

arch::ArchitectureConfig make_arch_config() {
  arch::ArchitectureConfig config;
  config.name = "service_arch";
  config.hosts = {{"h1", 0.99}, {"h2", 0.97}};
  config.sensors = {{"gauge", 0.98}};
  config.default_wcet = 4;
  config.default_wctt = 1;
  return config;
}

impl::ImplementationConfig make_impl_config(
    std::vector<std::string> filter_hosts) {
  impl::ImplementationConfig config;
  config.task_mappings = {{"filter", std::move(filter_hosts), 0, 0, 0}};
  config.sensor_bindings = {{"s", "gauge"}};
  return config;
}

/// {"schema":1,"id":id,"verb":verb, <extra fields>} — `extra` is raw
/// JSON members ("\"key\":value,...") or empty.
std::string make_frame(std::string_view id, std::string_view verb,
                       std::string_view extra = {}) {
  std::string frame = "{\"schema\":1,\"id\":\"" + std::string(id) +
                      "\",\"verb\":\"" + std::string(verb) + "\"";
  if (!extra.empty()) {
    frame += ",";
    frame += extra;
  }
  frame += "}";
  return frame;
}

std::string cold_analyze_extra(const impl::ImplementationConfig& config) {
  return "\"spec\":" + spec::to_json(make_spec_config()) +
         ",\"arch\":" + arch::to_json(make_arch_config()) +
         ",\"implementation\":" + impl::to_json(config);
}

std::string mutate_extra(
    std::string_view fingerprint, std::string_view task,
    const std::vector<std::string>& hosts, bool full_report = false,
    std::optional<std::int64_t> reexecutions = std::nullopt) {
  JsonWriter hosts_json;
  hosts_json.begin_array();
  for (const std::string& host : hosts) hosts_json.value(host);
  hosts_json.end_array();
  std::string extra = "\"fingerprint\":\"" + std::string(fingerprint) +
                      "\",\"mutate\":{\"task\":\"" + std::string(task) +
                      "\",\"hosts\":" + std::move(hosts_json).str();
  if (reexecutions.has_value()) {
    extra += ",\"reexecutions\":" + std::to_string(*reexecutions);
  }
  extra += "}";
  if (full_report) extra += ",\"full_report\":true";
  return extra;
}

/// Extracts result.fingerprint from an ok frame.
std::string response_fingerprint(const std::string& frame) {
  const std::string key = "\"fingerprint\":\"";
  const std::size_t at = frame.find(key);
  EXPECT_NE(at, std::string::npos) << frame;
  if (at == std::string::npos) return {};
  return frame.substr(at + key.size(), 16);
}

std::string handle_ok(Service& service, const std::string& frame) {
  ServiceReply reply = service.handle(frame);
  EXPECT_TRUE(contains(reply.frame, "\"ok\":true")) << reply.frame;
  return std::string(reply.frame);
}

std::string handle_error(Service& service, const std::string& frame,
                         std::string_view code) {
  ServiceReply reply = service.handle(frame);
  EXPECT_TRUE(contains(reply.frame, "\"ok\":false")) << reply.frame;
  EXPECT_TRUE(
      contains(reply.frame, "\"code\":\"" + std::string(code) + "\""))
      << reply.frame;
  return std::string(reply.frame);
}

/// A deterministic clock: every now_ms() call advances time by `step`.
/// handle() reads the clock once at arrival, run_verb once more when a
/// deadline is set, and do_batch twice per deadline-checked item.
struct FakeClock {
  std::int64_t now = 0;
  std::int64_t step = 100;
  std::function<std::int64_t()> fn() {
    return [this] {
      now += step;
      return now;
    };
  }
};

// ---------------------------------------------------------------------------
// Protocol vocabulary.

TEST(Protocol, VerbNamesRoundTrip) {
  const Verb verbs[] = {Verb::kPing,     Verb::kAnalyze, Verb::kSynthesize,
                        Verb::kValidate, Verb::kLint,    Verb::kUpdateCheck,
                        Verb::kBatch,    Verb::kShutdown};
  for (const Verb verb : verbs) {
    const std::optional<Verb> back = verb_from_name(verb_name(verb));
    ASSERT_TRUE(back.has_value()) << verb_name(verb);
    EXPECT_EQ(*back, verb);
  }
  EXPECT_EQ(verb_from_name("update_check"), Verb::kUpdateCheck);
  EXPECT_FALSE(verb_from_name("no_such_verb").has_value());
}

TEST(Protocol, FingerprintFormatRoundTrips) {
  for (const std::uint64_t fp :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeef},
        std::uint64_t{0xffffffffffffffff}}) {
    const std::string text = format_fingerprint(fp);
    EXPECT_EQ(text.size(), 16u);
    EXPECT_EQ(parse_fingerprint(text), fp);
  }
  EXPECT_FALSE(parse_fingerprint("").has_value());
  EXPECT_FALSE(parse_fingerprint("12345").has_value());
  EXPECT_FALSE(parse_fingerprint("ABCDEF0123456789").has_value());
  EXPECT_FALSE(parse_fingerprint("0123456789abcdef0").has_value());
}

TEST(Protocol, ExtractRequestIdIsBestEffort) {
  EXPECT_EQ(extract_request_id("{\"id\":\"r7\",\"verb\":\"ping\"}"), "r7");
  EXPECT_FALSE(extract_request_id("{\"id\":42}").has_value());
  EXPECT_FALSE(extract_request_id("not json").has_value());
}

TEST(Protocol, ErrorFrameRendersNullId) {
  const std::string frame =
      make_error_frame(std::nullopt, InvalidArgumentError("bad"));
  EXPECT_TRUE(contains(frame, "\"id\":null")) << frame;
  EXPECT_TRUE(contains(frame, "\"code\":\"kInvalidArgument\"")) << frame;
}

// ---------------------------------------------------------------------------
// Envelope handling.

TEST(Service, PingAndEnvelopeErrors) {
  Service service;
  const std::string pong = handle_ok(service, make_frame("p1", "ping"));
  EXPECT_TRUE(contains(pong, "\"pong\":true")) << pong;

  // Not JSON at all: error with a null id.
  ServiceReply garbled = service.handle("not json");
  EXPECT_TRUE(contains(garbled.frame, "\"id\":null")) << garbled.frame;
  EXPECT_TRUE(contains(garbled.frame, "\"ok\":false"));

  handle_error(service, "{\"schema\":1,\"verb\":\"ping\"}",
               "kInvalidArgument");  // no id
  handle_error(service, "{\"schema\":2,\"id\":\"x\",\"verb\":\"ping\"}",
               "kInvalidArgument");  // foreign schema
  handle_error(service, make_frame("x", "no_such_verb"),
               "kInvalidArgument");  // unknown verb
}

// ---------------------------------------------------------------------------
// Analyze: cold path, delta path, and their byte-identity contract.

TEST(Service, ColdAnalyzeMatchesFacadeReport) {
  auto workload = lrt::build_workload(make_spec_config(), make_arch_config());
  ASSERT_TRUE(workload.ok());
  auto impl =
      lrt::build_implementation(*workload, make_impl_config({"h1", "h2"}));
  ASSERT_TRUE(impl.ok());
  auto direct = lrt::analyze(*workload, *impl);
  ASSERT_TRUE(direct.ok());

  Service service;
  const std::string frame = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  // The embedded report is byte-identical to the one-shot facade call's.
  EXPECT_TRUE(contains(frame, reliability::to_json(*direct))) << frame;
  EXPECT_EQ(response_fingerprint(frame),
            format_fingerprint(workload->fingerprint()));
  EXPECT_EQ(service.resident_count(), 1u);
}

TEST(Service, MutateHitIsByteIdenticalToColdRebuild) {
  // Warm service: cold analyze on {h1,h2}, then a delta to {h2}.
  Service warm;
  const std::string cold = handle_ok(
      warm, make_frame("c1", "analyze",
                       cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  const std::string fp = response_fingerprint(cold);
  const std::string hit = handle_ok(
      warm, make_frame("m1", "analyze",
                       mutate_extra(fp, "filter", {"h2"}, true)));

  // Fresh service: the mutated config analyzed cold, same request id —
  // the whole response frame must match byte for byte.
  Service fresh;
  const std::string rebuilt = handle_ok(
      fresh,
      make_frame("m1", "analyze",
                 cold_analyze_extra(make_impl_config({"h2"}))));
  EXPECT_EQ(hit, rebuilt);
}

TEST(Service, MutateDefaultsToCompactVerdict) {
  Service service;
  const std::string cold = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  EXPECT_TRUE(contains(cold, "\"report\":")) << cold;
  const std::string fp = response_fingerprint(cold);

  const std::string compact = handle_ok(
      service,
      make_frame("m1", "analyze", mutate_extra(fp, "filter", {"h2"})));
  EXPECT_FALSE(contains(compact, "\"report\":")) << compact;
  EXPECT_TRUE(contains(compact, "\"reliable\":")) << compact;
  EXPECT_TRUE(contains(compact, "\"unsatisfied_comms\":")) << compact;

  // The compact verdict agrees with the full report's summary fields.
  const std::string full = handle_ok(
      service,
      make_frame("m2", "analyze", mutate_extra(fp, "filter", {"h2"}, true)));
  const auto verdict_of = [](const std::string& frame) {
    const std::size_t begin = frame.find("\"reliable\":");
    const std::size_t end = frame.find(",\"report\"");
    return frame.substr(begin, end == std::string::npos
                                   ? frame.find("}}") - begin
                                   : end - begin);
  };
  EXPECT_EQ(verdict_of(compact), verdict_of(full));
}

TEST(Service, FingerprintAddressingAndNotFound) {
  Service service;
  const std::string cold = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1"}))));
  const std::string fp = response_fingerprint(cold);

  // Resident hit by fingerprint alone.
  const std::string hit = handle_ok(
      service,
      make_frame("m1", "analyze", mutate_extra(fp, "filter", {"h1", "h2"})));
  EXPECT_EQ(response_fingerprint(hit), fp);

  // Unknown fingerprint: typed kNotFound telling the caller to resend.
  const std::string miss = handle_error(
      service,
      make_frame("m2", "analyze",
                 mutate_extra("0000000000000000", "filter", {"h1"})),
      "kNotFound");
  EXPECT_TRUE(contains(miss, "resend 'spec' and 'arch'")) << miss;
}

TEST(Service, InvalidMutateDoesNotPoisonResidentState) {
  Service warm;
  const std::string cold = handle_ok(
      warm, make_frame("c1", "analyze",
                       cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  const std::string fp = response_fingerprint(cold);

  handle_error(warm,
               make_frame("e1", "analyze",
                          mutate_extra(fp, "no_such_task", {"h1"})),
               "kNotFound");
  handle_error(warm,
               make_frame("e2", "analyze",
                          mutate_extra(fp, "filter", {"no_such_host"})),
               "kNotFound");
  handle_error(warm,
               make_frame("e3", "analyze",
                          mutate_extra(fp, "filter", {"h1", "h1"})),
               "kInvalidArgument");
  handle_error(warm,
               make_frame("e4", "analyze", mutate_extra(fp, "filter", {})),
               "kInvalidArgument");

  // After four rejected mutations the evaluator still answers the next
  // delta with the same bytes a fresh cold analysis produces.
  const std::string hit = handle_ok(
      warm, make_frame("m1", "analyze",
                       mutate_extra(fp, "filter", {"h2"}, true)));
  Service fresh;
  const std::string rebuilt = handle_ok(
      fresh,
      make_frame("m1", "analyze",
                 cold_analyze_extra(make_impl_config({"h2"}))));
  EXPECT_EQ(hit, rebuilt);
}

TEST(Service, ReexecutionDeltaIsAHitByteIdenticalToColdAnalyze) {
  obs::MetricsRegistry metrics;
  obs::Sink sink(&metrics, nullptr);
  ServiceOptions options;
  options.sink = &sink;
  Service warm(options);
  const std::string cold = handle_ok(
      warm, make_frame("c1", "analyze",
                       cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  const std::string fp = response_fingerprint(cold);
  const std::string hit = handle_ok(
      warm, make_frame("m1", "analyze",
                       mutate_extra(fp, "filter", {"h2"}, true, 2)));

  // A re-execution change re-propagates the resident evaluator like a
  // host change does: one cold analysis, one hit.
  const auto snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counter("service.analyze_cold"), 1);
  EXPECT_EQ(snapshot.counter("service.analyze_hits"), 1);

  impl::ImplementationConfig mutated = make_impl_config({"h2"});
  mutated.task_mappings[0].reexecutions = 2;
  Service fresh;
  EXPECT_EQ(hit, handle_ok(fresh, make_frame("m1", "analyze",
                                             cold_analyze_extra(mutated))));
}

TEST(Service, ReexecutionDeltaKeepsBuildRules) {
  // A checkpointed task needs re-executions (Implementation::Build), so a
  // delta to zero is rejected and leaves the resident state as it was.
  impl::ImplementationConfig checkpointed = make_impl_config({"h1"});
  checkpointed.task_mappings[0].reexecutions = 1;
  checkpointed.task_mappings[0].checkpoints = 1;
  Service warm;
  const std::string cold = handle_ok(
      warm, make_frame("c1", "analyze", cold_analyze_extra(checkpointed)));
  const std::string fp = response_fingerprint(cold);
  for (const std::int64_t count : {std::int64_t{0}, std::int64_t{-1},
                                   std::int64_t{4294967295}}) {
    handle_error(warm,
                 make_frame("e" + std::to_string(count), "analyze",
                            mutate_extra(fp, "filter", {"h2"}, true, count)),
                 "kInvalidArgument");
  }

  // The count the delta leaves out stays the resident one (1).
  const std::string hit = handle_ok(
      warm, make_frame("m1", "analyze",
                       mutate_extra(fp, "filter", {"h2"}, true)));
  impl::ImplementationConfig expected = checkpointed;
  expected.task_mappings[0].hosts = {"h2"};
  Service fresh;
  EXPECT_EQ(hit, handle_ok(fresh, make_frame("m1", "analyze",
                                             cold_analyze_extra(expected))));
}

TEST(Service, ColdAnalyzeOfUnsafeCycleKeepsTheAnalysisError) {
  // One series task reading and writing c: a cycle no independent-model
  // task cuts. The reply carries reliability::analyze's error text.
  spec::SpecificationConfig spec_config;
  spec_config.name = "unsafe";
  spec_config.communicators = {
      {"c", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.5}};
  spec::SpecificationConfig::TaskConfig loop;
  loop.name = "loop";
  loop.inputs = {{"c", 0}};
  loop.outputs = {{"c", 1}};
  loop.model = spec::FailureModel::kSeries;
  spec_config.tasks.push_back(std::move(loop));
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {{"loop", {"h1"}, 0, 0, 0}};

  Service service;
  const ServiceReply reply = service.handle(make_frame(
      "u1", "analyze",
      "\"spec\":" + spec::to_json(spec_config) +
          ",\"arch\":" + arch::to_json(make_arch_config()) +
          ",\"implementation\":" + impl::to_json(impl_config)));
  EXPECT_EQ(reply.frame,
            "{\"schema\":1,\"id\":\"u1\",\"ok\":false,\"error\":{"
            "\"code\":\"kFailedPrecondition\",\"message\":\"reliability "
            "analysis requires a cycle-safe specification:\\ncycle 0: "
            "{c}\\n\"}}");
}

TEST(Service, MutateWithoutResidentImplementationFailsPrecondition) {
  Service service;
  // spec+arch make the workload resident, but no implementation was ever
  // analyzed — a delta has nothing to mutate.
  const std::string extra =
      "\"spec\":" + spec::to_json(make_spec_config()) +
      ",\"arch\":" + arch::to_json(make_arch_config()) +
      ",\"mutate\":{\"task\":\"filter\",\"hosts\":[\"h1\"]}";
  const std::string frame = handle_error(
      service, make_frame("m1", "analyze", extra), "kFailedPrecondition");
  EXPECT_TRUE(contains(frame, "send a full 'implementation' first")) << frame;
}

TEST(Service, AnalyzeNeedsExactlyOneOfImplementationAndMutate) {
  Service service;
  const std::string neither =
      "\"spec\":" + spec::to_json(make_spec_config()) +
      ",\"arch\":" + arch::to_json(make_arch_config());
  handle_error(service, make_frame("a1", "analyze", neither),
               "kInvalidArgument");
  const std::string both =
      neither + ",\"implementation\":" +
      impl::to_json(make_impl_config({"h1"})) +
      ",\"mutate\":{\"task\":\"filter\",\"hosts\":[\"h1\"]}";
  handle_error(service, make_frame("a2", "analyze", both),
               "kInvalidArgument");
}

// ---------------------------------------------------------------------------
// Resident state under long delta streams: the undo trail and the
// full-report fragment cache.

TEST(Service, ResidentUndoTrailStaysEmptyAcrossDeltas) {
  Service service;
  const std::string cold = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  const std::string fp = response_fingerprint(cold);
  const std::optional<std::uint64_t> key = parse_fingerprint(fp);
  ASSERT_TRUE(key.has_value());
  const std::vector<std::vector<std::string>> host_sets = {
      {"h1"}, {"h2"}, {"h1", "h2"}};
  for (int i = 0; i < 60; ++i) {
    handle_ok(service,
              make_frame("m" + std::to_string(i), "analyze",
                         mutate_extra(fp, "filter",
                                      host_sets[static_cast<std::size_t>(i) %
                                                host_sets.size()],
                                      i % 4 == 0)));
  }
  // Every delta changed an SRG; none of them may be kept for undo.
  EXPECT_EQ(ServiceTestPeer::trail_mark(service, *key), 0u);
}

/// A generated workload mirrored outside the service: the configs, the
/// implementation the service should hold, and the models to analyze it.
struct MirroredWorkload {
  spec::SpecificationConfig spec_config;
  arch::ArchitectureConfig arch_config;
  impl::ImplementationConfig impl_config;
  lrt::Workload models;
  std::string fingerprint;
};

MirroredWorkload make_mirrored_workload(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  gen::WorkloadOptions options;
  options.min_layers = 10;
  options.max_layers = 10;
  options.min_tasks_per_layer = 20;
  options.max_tasks_per_layer = 20;
  options.min_hosts = 4;
  options.max_hosts = 4;
  auto generated = gen::random_workload(rng, options);
  EXPECT_TRUE(generated.ok()) << generated.status().to_string();
  // The mirror holds the configs as the service decodes them: numbers
  // on the wire carry 12 significant digits.
  MirroredWorkload mirror;
  auto spec_doc =
      parse_json(spec::to_json(generated->specification->to_config()));
  auto arch_doc = parse_json(arch::to_json(generated->architecture_config));
  EXPECT_TRUE(spec_doc.ok() && arch_doc.ok());
  auto spec_config = spec::specification_config_from_json(*spec_doc);
  auto arch_config = arch::architecture_config_from_json(*arch_doc);
  EXPECT_TRUE(spec_config.ok() && arch_config.ok());
  mirror.spec_config = std::move(spec_config).value();
  mirror.arch_config = std::move(arch_config).value();
  mirror.impl_config = generated->implementation_config;
  auto models = lrt::build_workload(mirror.spec_config, mirror.arch_config);
  EXPECT_TRUE(models.ok()) << models.status().to_string();
  mirror.models = std::move(models).value();
  mirror.fingerprint = format_fingerprint(mirror.models.fingerprint());
  return mirror;
}

/// The ok frame a correct service returns for `config`: the facade's
/// one-shot analysis, summarized and (optionally) embedded whole.
std::string expected_analyze_frame(const MirroredWorkload& mirror,
                                   const impl::ImplementationConfig& config,
                                   std::string_view id, bool full_report) {
  auto impl = lrt::build_implementation(mirror.models, config);
  EXPECT_TRUE(impl.ok()) << impl.status().to_string();
  auto report = lrt::analyze(mirror.models, *impl);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  std::int64_t unsatisfied = 0;
  for (const reliability::CommunicatorVerdict& v : report->verdicts) {
    if (!v.satisfied) ++unsatisfied;
  }
  JsonWriter json;
  json.begin_object();
  json.key("fingerprint");
  json.value(mirror.fingerprint);
  json.key("reliable");
  json.value(report->reliable);
  json.key("unsatisfied_comms");
  json.value(unsatisfied);
  if (full_report) {
    json.key("report");
    json.raw(reliability::to_json(*report));
  }
  json.end_object();
  return make_ok_frame(id, std::move(json).str());
}

std::string mutate_frame(std::string_view id, const MirroredWorkload& mirror,
                         const std::string& task,
                         const std::vector<std::string>& hosts,
                         std::optional<int> reexecutions, bool full_report) {
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(kWireSchemaVersion);
  json.key("id");
  json.value(id);
  json.key("verb");
  json.value("analyze");
  json.key("fingerprint");
  json.value(mirror.fingerprint);
  json.key("mutate");
  json.begin_object();
  json.key("task");
  json.value(task);
  json.key("hosts");
  json.begin_array();
  for (const std::string& host : hosts) json.value(host);
  json.end_array();
  if (reexecutions.has_value()) {
    json.key("reexecutions");
    json.value(*reexecutions);
  }
  json.end_object();
  json.key("full_report");
  json.value(full_report);
  json.end_object();
  return std::move(json).str();
}

std::string cold_frame(std::string_view id, const MirroredWorkload& mirror) {
  return make_frame(id, "analyze",
                    "\"spec\":" + spec::to_json(mirror.spec_config) +
                        ",\"arch\":" + arch::to_json(mirror.arch_config) +
                        ",\"implementation\":" +
                        impl::to_json(mirror.impl_config));
}

TEST(Service, RandomizedDeltaStreamMatchesFacadeReports) {
  // Three 200-task workloads over two resident slots: fingerprint
  // addressing regularly finds its workload evicted and re-primes it
  // with a cold analyze of the mirrored config.
  std::vector<MirroredWorkload> mirrors;
  for (std::uint64_t seed = 501; seed <= 503; ++seed) {
    mirrors.push_back(make_mirrored_workload(seed));
  }
  ServiceOptions options;
  options.max_resident_workloads = 2;
  Service service(options);
  Xoshiro256 rng(2008);

  int full_reports = 0;
  int rebuilds = 0;
  int rejections = 0;
  int reprimes = 0;
  for (int step = 0; step < 240; ++step) {
    MirroredWorkload& mirror =
        mirrors[static_cast<std::size_t>(rng.next_below(mirrors.size()))];
    const std::string id = "s" + std::to_string(step);
    auto& mappings = mirror.impl_config.task_mappings;
    auto& mapping = mappings[static_cast<std::size_t>(
        rng.next_below(mappings.size()))];
    const auto& all_hosts = mirror.arch_config.hosts;
    const std::uint64_t action = rng.next_below(10);

    if (action == 0) {
      // Rejected mutation: unknown host, duplicate host, or no hosts.
      // The mirror stays as it is, and so must the resident state.
      std::vector<std::string> bad_hosts;
      switch (rng.next_below(3)) {
        case 0: bad_hosts = {"no_such_host"}; break;
        case 1: bad_hosts = {all_hosts[0].name, all_hosts[0].name}; break;
        default: break;
      }
      const ServiceReply reply = service.handle(
          mutate_frame(id, mirror, mapping.task, bad_hosts, std::nullopt,
                       true));
      EXPECT_TRUE(contains(reply.frame, "\"ok\":false")) << reply.frame;
      ++rejections;
      continue;
    }

    // A nonempty host subset, in random order (the service sorts).
    std::vector<std::string> hosts;
    for (const auto& host : all_hosts) {
      if (rng.bernoulli(0.5)) hosts.push_back(host.name);
    }
    if (hosts.empty()) {
      hosts.push_back(
          all_hosts[static_cast<std::size_t>(rng.next_below(all_hosts.size()))]
              .name);
    }
    if (hosts.size() > 1 && rng.bernoulli(0.5)) {
      std::swap(hosts.front(), hosts.back());
    }
    std::optional<int> reexecutions;
    if (action == 1) {
      // Re-execution change: a re-execution delta.
      reexecutions = mapping.reexecutions == 0 ? 1 : 0;
      ++rebuilds;
    }
    const bool full_report = action <= 5;

    std::string frame = mutate_frame(id, mirror, mapping.task, hosts,
                                     reexecutions, full_report);
    ServiceReply reply = service.handle(frame);
    if (contains(reply.frame, "\"code\":\"kNotFound\"")) {
      // Evicted: re-prime with the mirrored implementation, then retry
      // the delta under a fresh id.
      const std::string primed = handle_ok(
          service, cold_frame(id + "-prime", mirror));
      EXPECT_EQ(primed,
                expected_analyze_frame(mirror, mirror.impl_config,
                                       id + "-prime", true));
      ++reprimes;
      frame = mutate_frame(id + "-retry", mirror, mapping.task, hosts,
                           reexecutions, full_report);
      reply = service.handle(frame);
    }
    std::vector<std::string> sorted_hosts;
    for (const auto& host : all_hosts) {
      if (std::find(hosts.begin(), hosts.end(), host.name) != hosts.end()) {
        sorted_hosts.push_back(host.name);
      }
    }
    mapping.hosts = sorted_hosts;
    if (reexecutions.has_value()) mapping.reexecutions = *reexecutions;

    const std::string reply_id =
        contains(frame, "-retry\"") ? id + "-retry" : id;
    ASSERT_EQ(reply.frame, expected_analyze_frame(mirror, mirror.impl_config,
                                                  reply_id, full_report))
        << "step " << step << " of workload " << mirror.fingerprint;
    if (full_report) ++full_reports;
  }
  // The seeded stream exercises every path it claims to.
  EXPECT_GT(full_reports, 60);
  EXPECT_GT(rebuilds, 10);
  EXPECT_GT(rejections, 10);
  EXPECT_GT(reprimes, 5);
}

TEST(Service, FullReportRowsThatChangeLengthAreSplicedInPlace) {
  // A perfect sensor and a perfect host make SRGs of exactly 1, which
  // print as "1"; other host sets print "0.97", "0.997", ... So moving
  // t1 and t2 between host sets changes the encoded length of rows a
  // and b, in the middle of the cached report body, and every later
  // row moves.
  MirroredWorkload mirror;
  mirror.spec_config.name = "row_lengths";
  mirror.spec_config.communicators = {
      {"s", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.9},
      {"a", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.9},
      {"b", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.8},
      {"z", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.5},
  };
  spec::SpecificationConfig::TaskConfig t1;
  t1.name = "t1";
  t1.inputs = {{"s", 0}};
  t1.outputs = {{"a", 1}};
  t1.model = spec::FailureModel::kSeries;
  spec::SpecificationConfig::TaskConfig t2;
  t2.name = "t2";
  t2.inputs = {{"a", 1}};
  t2.outputs = {{"b", 2}};
  t2.model = spec::FailureModel::kSeries;
  mirror.spec_config.tasks = {t1, t2};
  mirror.arch_config.name = "row_lengths_arch";
  mirror.arch_config.hosts = {{"perfect", 1.0}, {"h2", 0.97}, {"h3", 0.9}};
  mirror.arch_config.sensors = {{"gauge", 1.0}, {"spare", 0.99}};
  mirror.arch_config.default_wcet = 2;
  mirror.arch_config.default_wctt = 1;
  mirror.impl_config.task_mappings = {{"t1", {"perfect"}, 0, 0, 0},
                                      {"t2", {"perfect"}, 0, 0, 0}};
  mirror.impl_config.sensor_bindings = {{"s", "gauge"}, {"z", "spare"}};
  auto models = lrt::build_workload(mirror.spec_config, mirror.arch_config);
  ASSERT_TRUE(models.ok()) << models.status().to_string();
  mirror.models = std::move(models).value();
  mirror.fingerprint = format_fingerprint(mirror.models.fingerprint());

  Service service;
  const std::string cold = handle_ok(service, cold_frame("len-cold", mirror));
  ASSERT_EQ(cold, expected_analyze_frame(mirror, mirror.impl_config,
                                         "len-cold", true));
  const std::vector<std::vector<std::string>> host_sets = {
      {"h2"}, {"perfect"}, {"h2", "h3"}, {"h3"}, {"perfect", "h2"},
      {"h2"}, {"h3"}, {"perfect"}};
  std::set<std::size_t> sizes;
  for (std::size_t step = 0; step < 24; ++step) {
    auto& mapping = mirror.impl_config.task_mappings[step % 2];
    mapping.hosts = host_sets[(step * 3 + step / 2) % host_sets.size()];
    const std::string id = "len-" + std::to_string(10 + step);
    const ServiceReply reply = service.handle(mutate_frame(
        id, mirror, mapping.task, mapping.hosts, std::nullopt, true));
    ASSERT_EQ(reply.frame,
              expected_analyze_frame(mirror, mirror.impl_config, id, true))
        << "step " << step;
    sizes.insert(reply.frame.size());
  }
  // Equal-length ids, so distinct frame sizes are distinct row lengths.
  EXPECT_GE(sizes.size(), 3u);
}

// ---------------------------------------------------------------------------
// Idempotent replay.

TEST(Service, ReplayedIdReturnsCachedBytesWithoutReExecuting) {
  obs::MetricsRegistry metrics;
  obs::Sink sink(&metrics, nullptr);
  ServiceOptions options;
  options.sink = &sink;
  Service service(options);
  const std::string request = make_frame(
      "dup", "analyze", cold_analyze_extra(make_impl_config({"h1", "h2"})));
  const std::string first = handle_ok(service, request);

  // The same bytes under the same id come back from the cache: the verb
  // ran once, the second request was a replay.
  EXPECT_EQ(service.handle(request).frame, first);
  const auto snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counter("service.ok"), 1);
  EXPECT_EQ(snapshot.counter("service.idempotent_replays"), 1);
}

TEST(Service, ReusedIdWithAnotherBodyIsATypedError) {
  // A ping, then a lint under the same id: the lint must not receive the
  // cached pong, and the conflict caches nothing.
  Service service;
  const std::string pong = handle_ok(service, make_frame("x", "ping"));
  EXPECT_TRUE(contains(pong, "\"pong\":true")) << pong;
  const std::string lint = make_frame("x", "lint", "\"source\":\"program\"");
  const std::string conflict = handle_error(service, lint, "kAlreadyExists");
  EXPECT_FALSE(contains(conflict, "pong")) << conflict;
  EXPECT_TRUE(contains(conflict, "already used by a different request"))
      << conflict;
  EXPECT_EQ(service.handle(lint).frame, conflict);
  // The original request still replays its own reply, and a fresh id
  // gets the lint verb's own answer.
  EXPECT_EQ(service.handle(make_frame("x", "ping")).frame, pong);
  const std::string fresh(service.handle(make_frame("y", "lint",
                                 "\"source\":\"program\"")).frame);
  EXPECT_FALSE(contains(fresh, "pong")) << fresh;
  EXPECT_FALSE(contains(fresh, "already used")) << fresh;
}

TEST(Service, ReplaysShareTheCachedBuffer) {
  // A full report of a 200-task workload (~20 KB): the reply that
  // executed and every replay of its id hand out one buffer.
  const MirroredWorkload mirror = make_mirrored_workload(501);
  Service service;
  const std::string request = cold_frame("full", mirror);
  const ServiceReply first = service.handle(request);
  ASSERT_EQ(first.frame, expected_analyze_frame(mirror, mirror.impl_config,
                                                "full", true));
  ASSERT_GT(first.frame.size(), 10000u);
  const ServiceReply replay = service.handle(request);
  const ServiceReply again = service.handle(request);
  EXPECT_EQ(replay.frame, first.frame);
  EXPECT_EQ(again.frame, first.frame);
  ASSERT_NE(first.buffer, nullptr);
  EXPECT_EQ(replay.buffer.get(), first.buffer.get());
  EXPECT_EQ(again.buffer.get(), first.buffer.get());
  EXPECT_EQ(again.frame.data(), first.buffer->data());
}

TEST(Service, ReplayCacheIsBoundedInBytes) {
  // Full reports of a 200-task workload (~20 KB each): some fifty fill
  // kMaxIdempotencyBytes long before the 1024-id count bound.
  obs::MetricsRegistry metrics;
  obs::Sink sink(&metrics, nullptr);
  ServiceOptions options;
  options.sink = &sink;
  Service service(options);
  const MirroredWorkload mirror = make_mirrored_workload(502);
  const std::string cold = handle_ok(service, cold_frame("cold", mirror));
  ASSERT_GT(cold.size(), 10000u);

  // Every delta moves the same task, so a request that runs again later
  // answers the bytes it answered first.
  const std::string& task = mirror.impl_config.task_mappings.front().task;
  const auto& hosts = mirror.arch_config.hosts;
  const std::size_t count = kMaxIdempotencyBytes / cold.size() + 10;
  std::vector<std::string> requests;
  std::vector<std::string> replies;
  std::size_t largest = cold.size();
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(mutate_frame("f" + std::to_string(i), mirror, task,
                                    {hosts[i % hosts.size()].name},
                                    std::nullopt, true));
    replies.push_back(handle_ok(service, requests.back()));
    largest = std::max(largest, replies.back().size());
    ASSERT_LE(ServiceTestPeer::replay_bytes(service), kMaxIdempotencyBytes)
        << i;
  }
  // Only what the bound forces out is evicted.
  EXPECT_GT(ServiceTestPeer::replay_bytes(service),
            kMaxIdempotencyBytes - largest);
  const auto counter = [&](const char* name) {
    return metrics.snapshot().counter(name);
  };

  // The newest id replays; the oldest was evicted and runs again.
  const std::int64_t hits = counter("service.analyze_hits");
  EXPECT_EQ(service.handle(requests.back()).frame, replies.back());
  EXPECT_EQ(counter("service.idempotent_replays"), 1);
  EXPECT_EQ(counter("service.analyze_hits"), hits);
  EXPECT_EQ(service.handle(requests.front()).frame, replies.front());
  EXPECT_EQ(counter("service.idempotent_replays"), 1);
  EXPECT_EQ(counter("service.analyze_hits"), hits + 1);
  EXPECT_LE(ServiceTestPeer::replay_bytes(service), kMaxIdempotencyBytes);

  // A cached id reused with another body is still a typed error.
  handle_error(service,
               mutate_frame("f" + std::to_string(count - 1), mirror, task,
                            {hosts[count % hosts.size()].name},
                            std::nullopt, true),
               "kAlreadyExists");
}

TEST(Service, ReplyLargerThanTheByteBoundIsNotCached) {
  obs::MetricsRegistry metrics;
  obs::Sink sink(&metrics, nullptr);
  ServiceOptions options;
  options.sink = &sink;
  Service service(options);
  const std::string ping = make_frame("p", "ping");
  const std::string pong = handle_ok(service, ping);
  const std::size_t pong_bytes = ServiceTestPeer::replay_bytes(service);
  EXPECT_EQ(pong_bytes, pong.size());

  // A batch of full-report deltas whose reply outgrows the whole bound.
  const MirroredWorkload mirror = make_mirrored_workload(503);
  const std::string cold = handle_ok(service, cold_frame("cold", mirror));
  const std::string& task = mirror.impl_config.task_mappings.front().task;
  const auto& hosts = mirror.arch_config.hosts;
  const std::size_t items = kMaxIdempotencyBytes / cold.size() + 4;
  std::string batch_items;
  for (std::size_t i = 0; i < items; ++i) {
    if (i > 0) batch_items += ",";
    batch_items += mutate_frame("item" + std::to_string(i), mirror, task,
                                {hosts[i % hosts.size()].name},
                                std::nullopt, true);
  }
  const std::string batch =
      make_frame("big", "batch", "\"items\":[" + batch_items + "]");
  const std::size_t cached = ServiceTestPeer::replay_bytes(service);
  const std::string reply = handle_ok(service, batch);
  ASSERT_GT(reply.size(), kMaxIdempotencyBytes);
  EXPECT_EQ(ServiceTestPeer::replay_bytes(service), cached);

  // Resent, the batch runs again (its first item puts the task back
  // where the first run put it, so the bytes repeat); nothing replays.
  const std::int64_t hits = metrics.snapshot().counter("service.analyze_hits");
  EXPECT_EQ(service.handle(batch).frame, reply);
  EXPECT_EQ(metrics.snapshot().counter("service.analyze_hits"),
            hits + static_cast<std::int64_t>(items));
  EXPECT_EQ(metrics.snapshot().counter("service.idempotent_replays"), 0);
  // The oversized reply evicted nothing: the pong still replays.
  EXPECT_EQ(ServiceTestPeer::replay_bytes(service), cached);
  EXPECT_EQ(service.handle(ping).frame, pong);
  EXPECT_EQ(metrics.snapshot().counter("service.idempotent_replays"), 1);
}

TEST(Service, ReplayCacheCountBoundStillEvicts) {
  obs::MetricsRegistry metrics;
  obs::Sink sink(&metrics, nullptr);
  ServiceOptions options;
  options.sink = &sink;
  options.max_idempotency_entries = 2;
  Service service(options);
  const std::string a = handle_ok(service, make_frame("a", "ping"));
  handle_ok(service, make_frame("b", "ping"));
  handle_ok(service, make_frame("c", "ping"));
  EXPECT_EQ(ServiceTestPeer::replay_bytes(service), 2 * a.size());
  // "a" was evicted by count and runs again; "c" replays.
  EXPECT_EQ(service.handle(make_frame("a", "ping")).frame, a);
  EXPECT_EQ(metrics.snapshot().counter("service.ok"), 4);
  handle_ok(service, make_frame("c", "ping"));
  EXPECT_EQ(metrics.snapshot().counter("service.ok"), 4);
  EXPECT_EQ(metrics.snapshot().counter("service.idempotent_replays"), 1);
}

// ---------------------------------------------------------------------------
// LRU bound on resident workloads.

TEST(Service, LruEvictsBeyondResidencyBound) {
  ServiceOptions options;
  options.max_resident_workloads = 1;
  Service service(options);

  const std::string first = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1"}))));
  const std::string fp_a = response_fingerprint(first);

  // A second workload (different host reliability) displaces the first.
  arch::ArchitectureConfig other_arch = make_arch_config();
  other_arch.hosts[0].reliability = 0.991;
  const std::string other_extra =
      "\"spec\":" + spec::to_json(make_spec_config()) +
      ",\"arch\":" + arch::to_json(other_arch) +
      ",\"implementation\":" + impl::to_json(make_impl_config({"h1"}));
  const std::string second =
      handle_ok(service, make_frame("c2", "analyze", other_extra));
  EXPECT_NE(response_fingerprint(second), fp_a);
  EXPECT_EQ(service.resident_count(), 1u);

  handle_error(service,
               make_frame("m1", "analyze",
                          mutate_extra(fp_a, "filter", {"h1"})),
               "kNotFound");
}

// ---------------------------------------------------------------------------
// Deadlines (injected clock: each now_ms() call advances 100ms).

TEST(Service, ExpiredDeadlineYieldsTypedTimeoutAndIsNotCached) {
  FakeClock clock;
  ServiceOptions options;
  options.clock_ms = clock.fn();
  Service service(options);

  // arrival=100 (deadline_at=150), verb check=200 -> expired.
  const std::string frame = handle_error(
      service, make_frame("d1", "ping", "\"deadline_ms\":50"),
      "kDeadlineExceeded");
  EXPECT_TRUE(contains(frame, "expired before the ping verb ran")) << frame;

  // A retry of the same id gets a fresh attempt, not the failure
  // replayed: with time rewound the same request now succeeds.
  clock.now = 0;
  const std::string retry = handle_ok(
      service, make_frame("d1", "ping", "\"deadline_ms\":50000"));
  EXPECT_TRUE(contains(retry, "\"pong\":true")) << retry;
}

TEST(Service, GenerousDeadlinePasses) {
  FakeClock clock;
  ServiceOptions options;
  options.clock_ms = clock.fn();
  Service service(options);
  handle_ok(service, make_frame("d2", "ping", "\"deadline_ms\":10000"));
}

TEST(Service, BatchDegradesToPartialResultsOnDeadline) {
  FakeClock clock;
  ServiceOptions options;
  options.clock_ms = clock.fn();
  Service service(options);

  // Clock trace at step=100 with deadline_ms=450 (deadline_at=550):
  // arrival=100, outer check=200, item0 check=300 + verb check=400 (ok),
  // item1 check=500 + verb check=600 (expired inside run_verb), item2
  // check=700 (expired before parsing).
  const std::string items =
      "\"deadline_ms\":450,\"items\":["
      "{\"schema\":1,\"id\":\"b0\",\"verb\":\"ping\"},"
      "{\"schema\":1,\"id\":\"b1\",\"verb\":\"ping\"},"
      "{\"schema\":1,\"id\":\"b2\",\"verb\":\"ping\"}]";
  const std::string frame =
      handle_ok(service, make_frame("batch1", "batch", items));
  EXPECT_TRUE(contains(frame, "\"id\":\"b0\",\"ok\":true")) << frame;
  EXPECT_TRUE(contains(frame, "\"pong\":true")) << frame;
  EXPECT_TRUE(contains(frame, "\"id\":\"b1\",\"ok\":false")) << frame;
  EXPECT_TRUE(contains(frame, "\"id\":\"b2\",\"ok\":false")) << frame;
  EXPECT_TRUE(contains(frame, "batch deadline expired before item 2"))
      << frame;

  // Partial batches are never cached: replayed with time rewound and a
  // slower clock, every item completes.
  clock.now = 0;
  clock.step = 1;
  const std::string retry =
      handle_ok(service, make_frame("batch1", "batch", items));
  EXPECT_TRUE(contains(retry, "\"id\":\"b1\",\"ok\":true")) << retry;
  EXPECT_TRUE(contains(retry, "\"id\":\"b2\",\"ok\":true")) << retry;
  EXPECT_FALSE(contains(retry, "\"ok\":false")) << retry;
}

TEST(Service, BatchRejectsNestedBatchAndShutdown) {
  Service service;
  const std::string items =
      "\"items\":["
      "{\"schema\":1,\"id\":\"n0\",\"verb\":\"batch\",\"items\":[]},"
      "{\"schema\":1,\"id\":\"n1\",\"verb\":\"shutdown\"}]";
  const std::string frame =
      handle_ok(service, make_frame("batch2", "batch", items));
  EXPECT_TRUE(contains(frame, "'batch' is not allowed inside a batch"))
      << frame;
  EXPECT_TRUE(contains(frame, "'shutdown' is not allowed inside a batch"))
      << frame;
}

// ---------------------------------------------------------------------------
// Framing.

TEST(Frame, RoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "{\"hello\":\"world\"}";
  ASSERT_TRUE(write_frame(fds[0], payload).ok());
  ASSERT_TRUE(write_frame(fds[0], "").ok());
  auto first = read_frame(fds[1]);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(**first, payload);
  auto second = read_frame(fds[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(**second, "");

  // Clean EOF at a frame boundary is nullopt, not an error.
  ::close(fds[0]);
  auto eof = read_frame(fds[1]);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
  ::close(fds[1]);
}

TEST(Frame, RejectsOversizedLengthPrefix) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GiB
  ASSERT_EQ(::write(fds[0], huge, sizeof huge),
            static_cast<ssize_t>(sizeof huge));
  auto result = read_frame(fds[1]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);
}

std::atomic<int> g_write_interrupts{0};
void count_write_interrupt(int) { g_write_interrupts.fetch_add(1); }

TEST(Frame, ShortWritesStillDeliverTheWholeFrame) {
  // A multi-megabyte frame through a few-KB socket buffer keeps the
  // writer blocked in sendmsg(); a signal (installed without SA_RESTART)
  // then ends the call after a partial transfer, or with EINTR before
  // any. write_frame must resume from the first unsent byte either way.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof small),
            0);
  struct sigaction action {};
  action.sa_handler = count_write_interrupt;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  std::string payload(3u << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i * 7 + i / 4093) % 26);
  }
  Result<std::optional<std::string>> received = std::optional<std::string>();
  std::thread reader([&] { received = read_frame(fds[1]); });
  std::atomic<bool> writing{true};
  const pthread_t writer = ::pthread_self();
  g_write_interrupts = 0;
  std::thread interrupter([&] {
    while (writing.load()) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  const Status written = write_frame(fds[0], payload);
  writing = false;
  interrupter.join();
  reader.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_TRUE(written.ok()) << written.to_string();
  EXPECT_GT(g_write_interrupts.load(), 0);
  ASSERT_TRUE(received.ok()) << received.status().to_string();
  ASSERT_TRUE(received->has_value());
  EXPECT_TRUE(**received == payload);
}

TEST(Frame, WriteToClosedPeerIsUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // No SIGPIPE: the test process keeps the default action, which would
  // kill it.
  const Status status = write_frame(fds[0], "{\"late\":true}");
  ::close(fds[0]);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.to_string();
}

TEST(Frame, RefusesOversizedPayloadBeforeWriting) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Address space for one byte over the limit; never touched, so it
  // costs no memory.
  const std::size_t size = kMaxFramePayload + 1;
  void* bytes = ::mmap(nullptr, size, PROT_READ,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(bytes, MAP_FAILED);
  const Status status =
      write_frame(fds[0], std::string_view(static_cast<char*>(bytes), size));
  ::munmap(bytes, size);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  char probe = 0;
  EXPECT_EQ(::recv(fds[1], &probe, 1, MSG_DONTWAIT), -1);
  EXPECT_EQ(errno, EAGAIN);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// The AF_UNIX server.

std::string test_socket_path(std::string_view tag) {
  return "/tmp/lrt_service_test_" + std::to_string(::getpid()) + "_" +
         std::string(tag) + ".sock";
}

TEST(Server, ServesPingAndShutsDownGracefully) {
  ServerOptions options;
  options.socket_path = test_socket_path("ping");
  options.threads = 2;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  auto pong = client->call(make_frame("p1", "ping"));
  ASSERT_TRUE(pong.ok()) << pong.status().to_string();
  EXPECT_TRUE(contains(*pong, "\"pong\":true")) << *pong;

  auto stopping = client->call(make_frame("s1", "shutdown"));
  ASSERT_TRUE(stopping.ok());
  EXPECT_TRUE(contains(*stopping, "\"stopping\":true")) << *stopping;
  (*server)->Wait();

  // The socket path is unlinked; a new connect finds nothing listening.
  EXPECT_NE(::access(options.socket_path.c_str(), F_OK), 0);
  EXPECT_FALSE(Client::Connect(options.socket_path).ok());
}

TEST(Server, ResponseBytesAreIndependentOfWorkerCount) {
  // One connection replaying the same request log must read the same
  // response bytes from a serial server and an 8-worker server.
  std::vector<std::string> log;
  log.push_back(make_frame("c1", "analyze",
                           cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  const std::string fp =
      format_fingerprint(lrt::fingerprint(make_spec_config(),
                                          make_arch_config()));
  for (int i = 0; i < 8; ++i) {
    std::string request_id = "m";
    request_id += std::to_string(i);
    log.push_back(make_frame(
        request_id, "analyze",
        mutate_extra(fp, "filter", {i % 2 == 0 ? "h2" : "h1"}, i % 3 == 0)));
  }
  log.push_back(make_frame("p1", "ping"));
  log.push_back(make_frame(
      "l1", "lint",
      "\"source\":\"program p { communicator c : real period 10 init 0.0 "
      "lrc 0.9; }\""));

  const auto replay = [&](unsigned threads) {
    ServerOptions options;
    options.socket_path =
        test_socket_path("replay" + std::to_string(threads));
    options.threads = threads;
    auto server = Server::Start(options);
    EXPECT_TRUE(server.ok()) << server.status().to_string();
    auto client = Client::Connect(options.socket_path);
    EXPECT_TRUE(client.ok());
    std::string stream;
    for (const std::string& frame : log) {
      auto response = client->call(frame);
      EXPECT_TRUE(response.ok()) << response.status().to_string();
      if (response.ok()) {
        stream += *response;
        stream += '\n';
      }
    }
    (*server)->Stop();
    (*server)->Wait();
    return stream;
  };

  const std::string serial = replay(1);
  const std::string parallel = replay(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Server, ShedsBeyondPendingBoundWithoutPoisoningState) {
  ServerOptions options;
  options.socket_path = test_socket_path("shed");
  options.threads = 1;
  options.max_pending = 1;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  // While a slow validate occupies the single pending slot, every frame
  // the reader sees is shed with a typed kUnavailable reply.
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  const std::string validate_frame = make_frame(
      "v1", "validate",
      "\"spec\":" + spec::to_json(make_spec_config()) +
          ",\"arch\":" + arch::to_json(make_arch_config()) +
          ",\"implementation\":" + impl::to_json(make_impl_config({"h1"})) +
          ",\"trials\":4000,\"periods\":60,\"seed\":11");

  // Client::call is lockstep, so drive the flood through the shed
  // window: the validate stays in flight (pending == max_pending) while
  // its response is unwritten, and every frame the reader sees in that
  // window is shed. Sending via a second connection keeps the first
  // connection's FIFO intact.
  auto flood = Client::Connect(options.socket_path);
  ASSERT_TRUE(flood.ok());

  std::thread slow([&] {
    // The validate itself is shed when it arrives while a flood ping is
    // pending; kUnavailable replies are never cached, so resending the
    // same id is the advertised retry.
    Result<std::string> response = client->call(validate_frame);
    for (int attempt = 0; attempt < 1000 && response.ok() &&
                          contains(*response, "\"code\":\"kUnavailable\"");
         ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      response = client->call(validate_frame);
    }
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(contains(*response, "\"ok\":true")) << *response;
    EXPECT_TRUE(contains(*response, "\"validation\"")) << *response;
  });

  // Retry pings until one lands inside the validate's service window and
  // is shed. The single worker guarantees the window exists.
  bool shed_seen = false;
  for (int i = 0; i < 2000 && !shed_seen; ++i) {
    auto response = flood->call(make_frame("f" + std::to_string(i), "ping"));
    ASSERT_TRUE(response.ok());
    if (contains(*response, "\"code\":\"kUnavailable\"")) {
      EXPECT_TRUE(contains(*response, "overloaded")) << *response;
      shed_seen = true;
    }
  }
  slow.join();
  EXPECT_TRUE(shed_seen);

  // Shedding poisons nothing: the same connection still analyzes. A
  // kUnavailable here is the advertised retry contract (the validate's
  // pending slot frees a moment after its response is written), so
  // retry with fresh ids until admitted.
  bool analyzed = false;
  for (int i = 0; i < 100 && !analyzed; ++i) {
    auto cold = flood->call(
        make_frame("c" + std::to_string(i), "analyze",
                   cold_analyze_extra(make_impl_config({"h1", "h2"}))));
    ASSERT_TRUE(cold.ok());
    if (contains(*cold, "\"ok\":true")) {
      analyzed = true;
    } else {
      EXPECT_TRUE(contains(*cold, "\"code\":\"kUnavailable\"")) << *cold;
      // Back off: on one core a tight retry loop can starve the worker
      // of the cycles it needs to retire the validate and free the slot.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(analyzed);

  (*server)->Stop();
  (*server)->Wait();
}

TEST(Server, PipelinedFramesOnOneConnectionAreAnsweredInOrder) {
  // A connection has at most one admitted request: frames a client
  // pipelines behind a slow one wait in its socket, are neither queued
  // nor shed, and are answered in request order.
  ServerOptions options;
  options.socket_path = test_socket_path("pipeline");
  options.threads = 1;
  options.max_pending = 1;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  const std::vector<std::string> ids = {"v1", "p1", "p2"};
  ASSERT_TRUE(write_frame(fd, make_frame(
                                  "v1", "validate",
                                  cold_analyze_extra(make_impl_config({"h1"})) +
                                      ",\"trials\":4000,\"periods\":60,"
                                      "\"seed\":11"))
                  .ok());
  ASSERT_TRUE(write_frame(fd, make_frame("p1", "ping")).ok());
  ASSERT_TRUE(write_frame(fd, make_frame("p2", "ping")).ok());
  for (const std::string& id : ids) {
    auto reply = read_frame(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    ASSERT_TRUE(reply->has_value());
    EXPECT_TRUE(contains(**reply, "\"id\":\"" + id + "\"")) << **reply;
    EXPECT_TRUE(contains(**reply, "\"ok\":true")) << **reply;
  }
  ::close(fd);

  (*server)->Stop();
  (*server)->Wait();
}

TEST(Server, JoinsReaderThreadsOfClosedConnections) {
  // A finished thread keeps its stack until joined, so a long-lived
  // server must not hold the reader of every connection it ever served.
  ServerOptions options;
  options.socket_path = test_socket_path("reap");
  options.threads = 1;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  for (int i = 0; i < 64; ++i) {
    auto client = Client::Connect(options.socket_path);
    ASSERT_TRUE(client.ok()) << client.status().to_string();
    auto pong = client->call(make_frame("p" + std::to_string(i), "ping"));
    ASSERT_TRUE(pong.ok()) << pong.status().to_string();
  }  // each Client closes its connection here

  // The listener joins finished readers at least once per poll period.
  std::size_t held = ServerTestPeer::reader_threads(**server);
  for (int wait = 0; wait < 500 && held > 1; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    held = ServerTestPeer::reader_threads(**server);
  }
  EXPECT_LE(held, 1u);

  (*server)->Stop();
  (*server)->Wait();
}

}  // namespace
}  // namespace lrt::service
