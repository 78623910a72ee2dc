// The two lrtd workloads. Both run an in-process service::Server (one
// worker) on an AF_UNIX socket and drive it with one service::Client in
// a closed loop, over generated 200-task workloads:
//
//  * lrtd_resident — mutate-delta analyzes rotating over the tasks and
//    hosts of 4 resident workloads; one delta in eight asks for the full
//    report. Exercises transport, parsing, propagation, and report
//    encoding.
//  * lrtd_cold — full spec + arch + implementation analyzes, round-robin
//    over 16 workloads, more than the service keeps resident, so every
//    request misses and evicts. Exercises parsing, the codecs, the
//    fingerprint, model builds, the full analysis, and encoding.
//
// Every reply is checked against lrt::analyze results computed in
// prepare(). The traced op additionally handles the same frame on an
// in-process mirror Service (same request history, so same state) and
// replays the handler's stages through the layers' public functions.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "arch/arch_json.h"
#include "common.h"
#include "gen/workload.h"
#include "impl/impl_json.h"
#include "lrt/lrt.h"
#include "reliability/analysis.h"
#include "reliability/incremental.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "spec/spec_json.h"
#include "support/json.h"
#include "support/rng.h"
#include "tracer.h"

namespace perfbench {
namespace {

using lrt::Result;
using lrt::Status;

constexpr std::size_t kResidentWorkloads = 4;
constexpr std::size_t kColdWorkloads = 16;
/// ServiceOptions::max_resident_workloads, pinned (the default).
constexpr std::size_t kMaxResident = 8;
/// One delta in this many asks for the full report.
constexpr std::uint64_t kFullReportEvery = 8;

constexpr std::uint64_t kResidentSalt = 0x7265736964656e74ull;
constexpr std::uint64_t kColdSalt = 0x636f6c6420202020ull;

/// One generated 200-task workload (10 layers x 20 tasks, 4 hosts): the
/// canonical documents, the built models for the oracle, and the names
/// the deltas rotate over.
struct Generated {
  lrt::spec::SpecificationConfig spec_config;
  lrt::arch::ArchitectureConfig arch_config;
  lrt::impl::ImplementationConfig impl_config;
  std::string spec_json;
  std::string arch_json;
  std::string impl_json;
  std::vector<std::string> tasks;
  std::vector<std::string> hosts;
  std::string fingerprint;  ///< wire form
  lrt::Workload workload;
};

Result<Generated> generate(std::uint64_t seed) {
  lrt::Xoshiro256 rng(seed);
  lrt::gen::WorkloadOptions options;
  options.min_layers = 10;
  options.max_layers = 10;
  options.min_tasks_per_layer = 20;
  options.max_tasks_per_layer = 20;
  options.min_hosts = 4;
  options.max_hosts = 4;
  LRT_ASSIGN_OR_RETURN(lrt::gen::Workload drawn,
                       lrt::gen::random_workload(rng, options));
  Generated g;
  g.spec_json = lrt::spec::to_json(drawn.specification->to_config());
  g.arch_json = lrt::arch::to_json(drawn.architecture_config);
  g.impl_json = lrt::impl::to_json(drawn.implementation_config);
  // The oracle works on the configs the server decodes from these
  // documents: the wire rounds numbers, so the drawn configs would
  // analyze (and fingerprint) slightly differently.
  LRT_ASSIGN_OR_RETURN(g.spec_config,
                       lrt::spec::specification_config_from_json(g.spec_json));
  LRT_ASSIGN_OR_RETURN(g.arch_config,
                       lrt::arch::architecture_config_from_json(g.arch_json));
  LRT_ASSIGN_OR_RETURN(
      g.impl_config, lrt::impl::implementation_config_from_json(g.impl_json));
  for (const auto& mapping : g.impl_config.task_mappings) {
    g.tasks.push_back(mapping.task);
  }
  for (const auto& host : g.arch_config.hosts) g.hosts.push_back(host.name);
  g.fingerprint = lrt::service::format_fingerprint(
      lrt::fingerprint(g.spec_config, g.arch_config));
  LRT_ASSIGN_OR_RETURN(g.workload,
                       lrt::build_workload(g.spec_config, g.arch_config));
  return g;
}

/// Drops what only the oracle and set-up use (the documents, the
/// configs, the built models), keeping what frames and checks need.
void keep_wire_names(Generated& g) {
  Generated kept;
  kept.tasks = std::move(g.tasks);
  kept.hosts = std::move(g.hosts);
  kept.fingerprint = std::move(g.fingerprint);
  g = std::move(kept);
}

Result<lrt::reliability::ReliabilityReport> oracle_report(
    const Generated& g, lrt::impl::ImplementationConfig config) {
  LRT_ASSIGN_OR_RETURN(
      const lrt::impl::Implementation impl,
      lrt::build_implementation(g.workload, std::move(config)));
  return lrt::analyze(g.workload, impl);
}

std::int64_t unsatisfied_count(const lrt::reliability::ReliabilityReport& r) {
  std::int64_t count = 0;
  for (const auto& verdict : r.verdicts) count += verdict.satisfied ? 0 : 1;
  return count;
}

std::string cold_frame(const std::string& id, const Generated& g) {
  lrt::JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(lrt::service::kWireSchemaVersion);
  json.key("id");
  json.value(id);
  json.key("verb");
  json.value("analyze");
  json.key("spec");
  json.raw(g.spec_json);
  json.key("arch");
  json.raw(g.arch_json);
  json.key("implementation");
  json.raw(g.impl_json);
  json.end_object();
  return std::move(json).str();
}

/// Size and hash of a report's JSON bytes: what the oracle keeps of the
/// full reports it expects, instead of the bytes themselves.
struct ReportBytes {
  std::uint64_t hash = 0;
  std::size_t size = 0;
  bool operator==(const ReportBytes&) const = default;
};

ReportBytes report_bytes(std::string_view json) {
  return {std::hash<std::string_view>{}(json), json.size()};
}

/// What a correct reply carries. `report` (reliability::to_json over the
/// lrt::analyze oracle) is null for a compact delta reply.
struct Expected {
  const std::string* fingerprint = nullptr;
  bool reliable = false;
  std::int64_t unsatisfied = 0;
  const ReportBytes* report = nullptr;
};

/// Checks an analyze reply: an ok frame for `id` whose fingerprint and
/// verdict match, and whose report (when expected) has the oracle's size
/// and hash. The report is compared as bytes, the envelope parsed.
bool check_reply(std::string_view reply, std::string_view id,
                 const Expected& expected) {
  std::string head;
  if (expected.report != nullptr) {
    static constexpr std::string_view kMarker = ",\"report\":";
    const std::size_t size = expected.report->size;
    const std::size_t tail = kMarker.size() + size + 2;
    if (reply.size() <= tail) return false;
    const std::size_t at = reply.size() - tail;
    if (reply.substr(at, kMarker.size()) != kMarker ||
        reply.substr(reply.size() - 2) != "}}" ||
        report_bytes(reply.substr(at + kMarker.size(), size)) !=
            *expected.report) {
      return false;
    }
    head.assign(reply.substr(0, at));
    head += "}}";
    reply = head;
  }
  const auto document = lrt::parse_json(reply);
  if (!document.ok()) return false;
  const lrt::JsonValue* ok = document->find("ok");
  const lrt::JsonValue* reply_id = document->find("id");
  const lrt::JsonValue* result = document->find("result");
  if (ok == nullptr || ok->kind != lrt::JsonValue::Kind::kBool ||
      !ok->boolean || reply_id == nullptr || !reply_id->is_string() ||
      reply_id->string != id || result == nullptr) {
    return false;
  }
  const lrt::JsonValue* fingerprint = result->find("fingerprint");
  const lrt::JsonValue* reliable = result->find("reliable");
  const lrt::JsonValue* unsatisfied = result->find("unsatisfied_comms");
  return fingerprint != nullptr && fingerprint->is_string() &&
         fingerprint->string == *expected.fingerprint &&
         reliable != nullptr &&
         reliable->kind == lrt::JsonValue::Kind::kBool &&
         reliable->boolean == expected.reliable && unsatisfied != nullptr &&
         unsatisfied->is_number() &&
         unsatisfied->number == static_cast<double>(expected.unsatisfied) &&
         (expected.report != nullptr || result->find("report") == nullptr);
}

/// Server, client, and (traced runs) the mirror Service. Op indices
/// number the requests since set-up began; request ids are fixed-width
/// so frame sizes do not drift with the op counter.
class LrtdWorkload : public Workload {
 public:
  Status prepare(const RunConfig& config) override {
    config_ = config;
    return generate_inputs();
  }

  Status setup(bool* warmup_ok) override {
    teardown();
    lrt::service::ServerOptions options;
    options.socket_path = config_.work_dir + "/pb-" +
                          std::to_string(getpid()) + "-" +
                          std::to_string(setups_++) + ".sock";
    options.threads = config_.server_threads;
    options.service.max_resident_workloads = kMaxResident;
    LRT_ASSIGN_OR_RETURN(server_,
                         lrt::service::Server::Start(std::move(options)));
    LRT_ASSIGN_OR_RETURN(
        lrt::service::Client client,
        lrt::service::Client::Connect(server_->socket_path()));
    client_.emplace(std::move(client));
    if (config_.trace) {
      lrt::service::ServiceOptions mirror_options;
      mirror_options.max_resident_workloads = kMaxResident;
      mirror_ = std::make_unique<lrt::service::Service>(mirror_options);
    }
    next_op_ = 0;
    mirrored_to_ = 0;
    LRT_RETURN_IF_ERROR(prime());
    mirrored_to_ = next_op_;
    const OpResult warm = run_op(nullptr);  // untimed warm-up op
    *warmup_ok = warm.ok;
    return Status();
  }

  OpResult run_op(Tracer* tracer) override {
    const std::uint64_t op = next_op_++;
    const std::string frame = frame_for(op);
    if (tracer != nullptr) return traced_op(op, frame, *tracer);
    OpResult result;
    const auto start = Clock::now();
    const auto reply = client_->call(frame);
    result.latency_us = elapsed_us(start, Clock::now());
    result.ok = reply.ok() && check(op, *reply);
    return result;
  }

  void teardown() override {
    client_.reset();
    server_.reset();  // stops, joins every thread, unlinks the socket
    mirror_.reset();
  }

  /// Enough requests to fill the service's idempotent-replay cache, whose
  /// FIFO eviction then runs on every timed request.
  std::uint64_t steady_state_ops() const override {
    return lrt::service::ServiceOptions{}.max_idempotency_entries;
  }

  bool layer_metrics(const Tracer& tracer, Metrics& out) override {
    add_layer_metric(tracer, "service.transport", "service.transport_us",
                     "us", true, out);
    add_layer_metric(tracer, "service.handle", "service.handle_us", "us",
                     true, out);
    add_layer_metric(tracer, "service.stage_uncovered",
                     "service.stage_uncovered_us", "us", true, out);
    add_layer_metric(tracer, "support.json_parse", "support.json_parse_us",
                     "us", true, out);
    add_stage_metrics(tracer, out);
    // Exact sizes: mean bytes per request over one full rotation of
    // requests, sent and checked after the traced ops.
    bool ok = true;
    double request_bytes = 0.0;
    double response_bytes = 0.0;
    const std::uint64_t rotation = rotation_length();
    for (std::uint64_t i = 0; i < rotation; ++i) {
      const std::uint64_t op = next_op_++;
      const std::string frame = frame_for(op);
      const auto reply = client_->call(frame);
      ok = ok && reply.ok() && check(op, *reply);
      request_bytes += static_cast<double>(frame.size());
      response_bytes += reply.ok() ? static_cast<double>(reply->size()) : 0;
    }
    const auto n = static_cast<double>(rotation);
    out["service.request_bytes"] = Metric{request_bytes / n, "bytes"};
    out["service.response_bytes"] = Metric{response_bytes / n, "bytes"};
    return ok;
  }

 protected:
  virtual Status generate_inputs() = 0;
  /// Set-up requests that bring the server to its steady state; leaves
  /// next_op_ at the first op of the steady state.
  virtual Status prime() = 0;
  [[nodiscard]] virtual std::string frame_for(std::uint64_t op) const = 0;
  [[nodiscard]] virtual bool check(std::uint64_t op,
                                   std::string_view reply) const = 0;
  /// Requests after which the sequence of request kinds repeats.
  [[nodiscard]] virtual std::uint64_t rotation_length() const = 0;
  /// Ops whose effect on the mirror must be replayed before a traced
  /// op, counted back from it: the state depends on no older op.
  [[nodiscard]] virtual std::uint64_t catch_up_window() const = 0;
  /// Advances the benchmark's own replay state past `op` (untimed).
  virtual void replay_untimed(std::uint64_t op) = 0;
  /// Replays the handler's stages for `op` through the layers' public
  /// functions, one span each; false when a replayed result is wrong.
  virtual bool replay_stages(std::uint64_t op, std::string_view frame,
                             Tracer& tracer) = 0;
  virtual void add_stage_metrics(const Tracer& tracer, Metrics& out) = 0;

  /// Sends a set-up frame to the server and, in traced runs, the mirror.
  Status send_setup(const std::string& frame) {
    LRT_ASSIGN_OR_RETURN(const std::string reply, client_->call(frame));
    if (mirror_ != nullptr) (void)mirror_->handle(frame);
    if (reply.find("\"ok\":true") == std::string::npos) {
      return lrt::InternalError(std::string(name()) +
                                ": set-up request failed: " + reply);
    }
    return Status();
  }

  /// Sends set-up op `op` (replay state included).
  Status send_setup_op(std::uint64_t op) {
    LRT_RETURN_IF_ERROR(send_setup(frame_for(op)));
    if (mirror_ != nullptr) replay_untimed(op);
    return Status();
  }

  RunConfig config_;
  std::uint64_t next_op_ = 0;

 private:
  /// Replays into the mirror (and the replay state) the ops an untraced
  /// block sent to the server only, so its state matches the server's.
  void catch_up(std::uint64_t op) {
    const std::uint64_t window = catch_up_window();
    std::uint64_t from = mirrored_to_;
    if (op > window && from < op - window) from = op - window;
    for (std::uint64_t i = from; i < op; ++i) {
      (void)mirror_->handle(frame_for(i));
      replay_untimed(i);
    }
    mirrored_to_ = op;
  }

  OpResult traced_op(std::uint64_t op, const std::string& frame,
                     Tracer& tracer) {
    catch_up(op);
    tracer.begin_op(op);
    OpResult result;
    bool ok = true;
    {
      const ScopedSpan op_span(&tracer, "op");
      const std::size_t rt_span = tracer.begin("service.roundtrip");
      const auto reply = client_->call(frame);
      tracer.end(rt_span);
      result.latency_us = tracer.duration_us(rt_span);

      const std::size_t handle_span = tracer.begin("service.handle");
      const lrt::service::ServiceReply mirrored = mirror_->handle(frame);
      tracer.end(handle_span);
      const double handle_us = tracer.duration_us(handle_span);

      const std::size_t stages_span = tracer.begin("service.stages");
      ok = replay_stages(op, frame, tracer);
      tracer.end(stages_span);
      const double stages_us = tracer.duration_us(stages_span);

      ok = ok && reply.ok() && check(op, *reply) && mirrored.frame == *reply;
      tracer.add_value("service.transport", result.latency_us - handle_us);
      tracer.add_value("service.stage_uncovered", handle_us - stages_us);
      tracer.set_basis(result.latency_us);
    }
    tracer.end_op();
    mirrored_to_ = op + 1;
    result.ok = ok;
    return result;
  }

  std::unique_ptr<lrt::service::Server> server_;
  std::optional<lrt::service::Client> client_;
  std::unique_ptr<lrt::service::Service> mirror_;
  std::uint64_t mirrored_to_ = 0;
  int setups_ = 0;
};

// ---------------------------------------------------------------------------

/// Delta step s of resident workload w is op 4s + w: task s % T moves to
/// the single host (s / T) % H. Once each task has moved, the mapping
/// depends only on s mod T*H, so the oracle is a table over one
/// rotation, computed with lrt::analyze in prepare().
class ResidentWorkload final : public LrtdWorkload {
 public:
  const char* name() const override { return "lrtd_resident"; }

 protected:
  Status generate_inputs() override {
    residents_.clear();
    for (std::size_t w = 0; w < kResidentWorkloads; ++w) {
      Resident r;
      LRT_ASSIGN_OR_RETURN(
          r.g, generate(derive_seed(config_.seed, kResidentSalt, w)));
      const std::size_t rotation = r.g.tasks.size() * r.g.hosts.size();
      if (rotation % kFullReportEvery != 0 ||
          (!residents_.empty() &&
           rotation != residents_.front().table.size())) {
        return lrt::InternalError("unexpected generated workload shape");
      }
      for (const std::string& task : r.g.tasks) {
        r.task_ids.push_back(*r.g.workload.spec->find_task(task));
      }
      for (const std::string& host : r.g.hosts) {
        r.host_ids.push_back(*r.g.workload.arch->find_host(host));
      }
      r.table.resize(rotation);
      for (std::size_t p = 0; p < rotation; ++p) {
        LRT_ASSIGN_OR_RETURN(lrt::reliability::ReliabilityReport report,
                             oracle_report(r.g, state_config(r, p)));
        Slot& slot = r.table[p];
        slot.reliable = report.reliable;
        slot.unsatisfied = unsatisfied_count(report);
        if (full_report(p)) {
          slot.report_bytes =
              report_bytes(lrt::reliability::to_json(report));
          if (config_.trace) slot.report = std::move(report);
        }
      }
      residents_.push_back(std::move(r));
    }
    return count_rotation_updates();
  }

  Status prime() override {
    for (std::size_t w = 0; w < residents_.size(); ++w) {
      if (config_.trace) LRT_RETURN_IF_ERROR(reset_replay(residents_[w]));
      LRT_RETURN_IF_ERROR(
          send_setup(cold_frame(fixed_id("prime", w), residents_[w].g)));
    }
    // The first T steps of each workload move every task once.
    const std::uint64_t priming = tasks() * residents_.size();
    for (std::uint64_t op = 0; op < priming; ++op) {
      LRT_RETURN_IF_ERROR(send_setup_op(op));
    }
    next_op_ = priming;
    return Status();
  }

  std::string frame_for(std::uint64_t op) const override {
    const Resident& r = resident(op);
    const std::uint64_t step = op / residents_.size();
    const std::size_t tasks = r.g.tasks.size();
    lrt::JsonWriter json;
    json.begin_object();
    json.key("schema");
    json.value(lrt::service::kWireSchemaVersion);
    json.key("id");
    json.value(fixed_id("r", op));
    json.key("verb");
    json.value("analyze");
    json.key("fingerprint");
    json.value(r.g.fingerprint);
    json.key("mutate");
    json.begin_object();
    json.key("task");
    json.value(r.g.tasks[step % tasks]);
    json.key("hosts");
    json.begin_array();
    json.value(r.g.hosts[(step / tasks) % r.g.hosts.size()]);
    json.end_array();
    json.end_object();
    if (full_report(step)) {
      json.key("full_report");
      json.value(true);
    }
    json.end_object();
    return std::move(json).str();
  }

  bool check(std::uint64_t op, std::string_view reply) const override {
    const Resident& r = resident(op);
    const std::uint64_t step = op / residents_.size();
    const Slot& slot = r.table[step % r.table.size()];
    Expected expected;
    expected.fingerprint = &r.g.fingerprint;
    expected.reliable = slot.reliable;
    expected.unsatisfied = slot.unsatisfied;
    if (full_report(step)) expected.report = &slot.report_bytes;
    return check_reply(reply, fixed_id("r", op), expected);
  }

  std::uint64_t rotation_length() const override {
    return residents_.front().table.size() * residents_.size();
  }

  std::uint64_t catch_up_window() const override {
    return tasks() * residents_.size();
  }

  void replay_untimed(std::uint64_t op) override { (void)propagate(op); }

  void release_setup_state() override {
    for (Resident& r : residents_) {
      keep_wire_names(r.g);
      r.evaluator.reset();
    }
  }

  bool replay_stages(std::uint64_t op, std::string_view frame,
                     Tracer& tracer) override {
    {
      const ScopedSpan span(&tracer, "support.json_parse");
      if (!lrt::parse_json(frame).ok()) return false;
    }
    {
      const ScopedSpan span(&tracer, "reliability.propagate");
      (void)propagate(op);
    }
    const std::uint64_t step = op / residents_.size();
    if (!full_report(step)) return true;
    const Slot& slot = resident(op).table[step % resident(op).table.size()];
    const ScopedSpan span(&tracer, "reliability.report_encode");
    return report_bytes(lrt::reliability::to_json(slot.report)) ==
           slot.report_bytes;
  }

  void add_stage_metrics(const Tracer& tracer, Metrics& out) override {
    add_layer_metric(tracer, "reliability.propagate",
                     "reliability.propagate_us", "us", true, out);
    add_layer_metric(tracer, "reliability.report_encode",
                     "reliability.report_encode_us", "us", true, out);
    out["reliability.comm_updates"] =
        Metric{static_cast<double>(rotation_comm_updates_), "count"};
  }

 private:
  struct Slot {
    bool reliable = false;
    std::int64_t unsatisfied = 0;
    ReportBytes report_bytes;  ///< full-report positions only
    /// Full-report positions of traced runs, for the encode replay.
    lrt::reliability::ReliabilityReport report;
  };
  struct Resident {
    Generated g;
    std::vector<lrt::spec::TaskId> task_ids;
    std::vector<lrt::arch::HostId> host_ids;
    std::vector<Slot> table;  ///< by rotation position
    /// The benchmark's own evaluator, kept in the server's state.
    std::optional<lrt::reliability::SrgEvaluator> evaluator;
  };

  static bool full_report(std::uint64_t step) {
    return step % kFullReportEvery == kFullReportEvery - 1;
  }

  const Resident& resident(std::uint64_t op) const {
    return residents_[op % residents_.size()];
  }
  std::uint64_t tasks() const { return residents_.front().g.tasks.size(); }

  /// The mapping after any step at rotation position p: tasks up to
  /// p % T on host p / T, the rest still on the host before it.
  static lrt::impl::ImplementationConfig state_config(const Resident& r,
                                                      std::size_t p) {
    const std::size_t tasks = r.g.tasks.size();
    const std::size_t hosts = r.g.hosts.size();
    const std::size_t k = p / tasks;
    const std::size_t last = p % tasks;
    lrt::impl::ImplementationConfig config = r.g.impl_config;
    for (auto& mapping : config.task_mappings) {
      const std::size_t t = static_cast<std::size_t>(
          std::find(r.g.tasks.begin(), r.g.tasks.end(), mapping.task) -
          r.g.tasks.begin());
      mapping.hosts = {r.g.hosts[t <= last ? k : (k + hosts - 1) % hosts]};
    }
    return config;
  }

  static Status reset_replay(Resident& r) {
    LRT_ASSIGN_OR_RETURN(
        const lrt::impl::Implementation impl,
        lrt::build_implementation(r.g.workload, r.g.impl_config));
    LRT_ASSIGN_OR_RETURN(
        lrt::reliability::SrgEvaluator evaluator,
        lrt::reliability::SrgEvaluator::FromImplementation(impl));
    r.evaluator.emplace(std::move(evaluator));
    return Status();
  }

  std::size_t propagate(std::uint64_t op) {
    Resident& r = residents_[op % residents_.size()];
    const std::uint64_t step = op / residents_.size();
    const std::size_t tasks = r.task_ids.size();
    const std::vector<lrt::arch::HostId> hosts = {
        r.host_ids[(step / tasks) % r.host_ids.size()]};
    const std::size_t updates =
        r.evaluator->set_task_hosts(r.task_ids[step % tasks], hosts);
    r.evaluator->discard_trail();
    return updates;
  }

  /// Communicator updates over one full rotation of deltas in the
  /// steady state: an exact count for a given seed.
  Status count_rotation_updates() {
    for (Resident& r : residents_) LRT_RETURN_IF_ERROR(reset_replay(r));
    const std::uint64_t rotation = rotation_length();
    for (std::uint64_t op = 0; op < rotation; ++op) (void)propagate(op);
    rotation_comm_updates_ = 0;
    for (std::uint64_t op = rotation; op < 2 * rotation; ++op) {
      rotation_comm_updates_ += static_cast<std::int64_t>(propagate(op));
    }
    return Status();
  }

  std::vector<Resident> residents_;
  std::int64_t rotation_comm_updates_ = 0;
};

// ---------------------------------------------------------------------------

/// Op i sends workload i % 16 with its full documents. The frames are
/// built once; only the fixed-width id digits are patched per op.
class ColdWorkload final : public LrtdWorkload {
 public:
  const char* name() const override { return "lrtd_cold"; }

 protected:
  Status generate_inputs() override {
    colds_.clear();
    for (std::size_t j = 0; j < kColdWorkloads; ++j) {
      Cold c;
      LRT_ASSIGN_OR_RETURN(c.g,
                           generate(derive_seed(config_.seed, kColdSalt, j)));
      LRT_ASSIGN_OR_RETURN(const lrt::reliability::ReliabilityReport report,
                           oracle_report(c.g, c.g.impl_config));
      c.reliable = report.reliable;
      c.unsatisfied = unsatisfied_count(report);
      c.report_bytes = report_bytes(lrt::reliability::to_json(report));
      c.frame = cold_frame(fixed_id("c", 0), c.g);
      c.id_at = c.frame.find("\"c-000000000000\"");
      if (c.id_at == std::string::npos) {
        return lrt::InternalError("request id not found in cold frame");
      }
      c.id_at += 1;  // past the quote
      colds_.push_back(std::move(c));
    }
    return Status();
  }

  Status prime() override {
    // Fill the resident set, so every timed request evicts one.
    for (std::uint64_t op = 0; op < kMaxResident; ++op) {
      LRT_RETURN_IF_ERROR(send_setup_op(op));
    }
    next_op_ = kMaxResident;
    return Status();
  }

  std::string frame_for(std::uint64_t op) const override {
    const Cold& c = colds_[op % colds_.size()];
    std::string frame = c.frame;
    const std::string id = fixed_id("c", op);
    frame.replace(c.id_at, id.size(), id);
    return frame;
  }

  bool check(std::uint64_t op, std::string_view reply) const override {
    const Cold& c = colds_[op % colds_.size()];
    Expected expected;
    expected.fingerprint = &c.g.fingerprint;
    expected.reliable = c.reliable;
    expected.unsatisfied = c.unsatisfied;
    expected.report = &c.report_bytes;
    return check_reply(reply, fixed_id("c", op), expected);
  }

  std::uint64_t rotation_length() const override { return colds_.size(); }
  std::uint64_t catch_up_window() const override { return kMaxResident; }
  void replay_untimed(std::uint64_t) override {}

  void release_setup_state() override {
    for (Cold& c : colds_) keep_wire_names(c.g);
  }

  bool replay_stages(std::uint64_t op, std::string_view frame,
                     Tracer& tracer) override {
    const Cold& c = colds_[op % colds_.size()];
    std::size_t span = tracer.begin("support.json_parse");
    const auto document = lrt::parse_json(frame);
    tracer.end(span);
    if (!document.ok()) return false;

    span = tracer.begin("codec.decode");
    const lrt::JsonValue* spec_doc = document->find("spec");
    const lrt::JsonValue* arch_doc = document->find("arch");
    const lrt::JsonValue* impl_doc = document->find("implementation");
    if (spec_doc == nullptr || arch_doc == nullptr || impl_doc == nullptr) {
      tracer.end(span);
      return false;
    }
    auto spec_config = lrt::spec::specification_config_from_json(*spec_doc);
    auto arch_config = lrt::arch::architecture_config_from_json(*arch_doc);
    auto impl_config = lrt::impl::implementation_config_from_json(*impl_doc);
    tracer.end(span);
    if (!spec_config.ok() || !arch_config.ok() || !impl_config.ok()) {
      return false;
    }

    span = tracer.begin("lrt.fingerprint");
    const std::uint64_t fingerprint =
        lrt::fingerprint(*spec_config, *arch_config);
    tracer.end(span);

    span = tracer.begin("model.build");
    auto workload = lrt::build_workload(std::move(spec_config).value(),
                                        std::move(arch_config).value());
    std::optional<lrt::impl::Implementation> impl;
    if (workload.ok()) {
      auto built = lrt::build_implementation(*workload,
                                             std::move(impl_config).value());
      if (built.ok()) impl.emplace(std::move(built).value());
    }
    tracer.end(span);
    if (!impl.has_value()) return false;

    span = tracer.begin("reliability.analyze");
    const auto report = lrt::analyze(*workload, *impl);
    tracer.end(span);

    span = tracer.begin("reliability.prime");
    const auto evaluator =
        lrt::reliability::SrgEvaluator::FromImplementation(*impl);
    tracer.end(span);

    if (!report.ok()) return false;
    span = tracer.begin("reliability.report_encode");
    const std::string report_json = lrt::reliability::to_json(*report);
    tracer.end(span);
    return evaluator.ok() && report_bytes(report_json) == c.report_bytes &&
           lrt::service::format_fingerprint(fingerprint) == c.g.fingerprint;
  }

  void add_stage_metrics(const Tracer& tracer, Metrics& out) override {
    add_layer_metric(tracer, "codec.decode", "codec.decode_us", "us", true,
                     out);
    add_layer_metric(tracer, "lrt.fingerprint", "lrt.fingerprint_us", "us",
                     true, out);
    add_layer_metric(tracer, "model.build", "model.build_us", "us", true,
                     out);
    add_layer_metric(tracer, "reliability.analyze", "reliability.analyze_us",
                     "us", true, out);
    add_layer_metric(tracer, "reliability.prime", "reliability.prime_us",
                     "us", true, out);
    add_layer_metric(tracer, "reliability.report_encode",
                     "reliability.report_encode_us", "us", true, out);
  }

 private:
  struct Cold {
    Generated g;
    bool reliable = false;
    std::int64_t unsatisfied = 0;
    ReportBytes report_bytes;
    std::string frame;  ///< with id "c-000000000000"
    std::size_t id_at = 0;
  };

  std::vector<Cold> colds_;
};

}  // namespace

std::unique_ptr<Workload> make_lrtd_resident() {
  return std::make_unique<ResidentWorkload>();
}

std::unique_ptr<Workload> make_lrtd_cold() {
  return std::make_unique<ColdWorkload>();
}

}  // namespace perfbench
