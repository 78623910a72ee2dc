#include "service/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <utility>
#include <vector>

#include "adapt/live_update.h"
#include "arch/arch_json.h"
#include "impl/impl_json.h"
#include "lint/sarif.h"
#include "lrt/lrt.h"
#include "reliability/analysis.h"
#include "reliability/incremental.h"
#include "spec/spec_graph.h"
#include "spec/spec_json.h"
#include "support/hash.h"
#include "synth/synth_json.h"

namespace lrt::service {
namespace {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Optional "sensor_bindings": [{"communicator": c, "sensor": s}, ...].
Result<std::vector<impl::ImplementationConfig::SensorBinding>>
decode_sensor_bindings(const JsonValue& body, std::string_view where) {
  std::vector<impl::ImplementationConfig::SensorBinding> bindings;
  const JsonValue* doc = body.find("sensor_bindings");
  if (doc == nullptr) return bindings;
  if (!doc->is_array()) {
    return InvalidArgumentError(std::string(where) +
                                ".sensor_bindings must be an array");
  }
  for (std::size_t i = 0; i < doc->array.size(); ++i) {
    const std::string entry = std::string(where) + ".sensor_bindings[" +
                              std::to_string(i) + "]";
    const JsonValue& item = doc->array[i];
    if (!item.is_object()) {
      return InvalidArgumentError(entry + " must be an object");
    }
    impl::ImplementationConfig::SensorBinding binding;
    LRT_ASSIGN_OR_RETURN(binding.communicator,
                         json_member_string(item, "communicator", entry));
    LRT_ASSIGN_OR_RETURN(binding.sensor,
                         json_member_string(item, "sensor", entry));
    bindings.push_back(std::move(binding));
  }
  return bindings;
}

/// The thread-count-invariant subset of a ValidationReport: everything
/// sim::to_json emits except `threads`, `elapsed_seconds`, and
/// `trials_per_second` — the fields that vary run to run. The campaign's
/// statistics themselves are bit-identical for every thread count by the
/// Monte Carlo determinism contract.
void write_validation_json(const sim::ValidationReport& report,
                           JsonWriter& json) {
  json.begin_object();
  json.key("implementation");
  json.value(report.implementation);
  json.key("trials");
  json.value(report.trials);
  json.key("seed");
  json.value(static_cast<std::int64_t>(report.seed));
  json.key("periods_per_trial");
  json.value(report.periods_per_trial);
  json.key("z");
  json.value(report.z);
  json.key("invocations");
  json.value(report.invocations);
  json.key("invocation_failures");
  json.value(report.invocation_failures);
  json.key("committed_updates");
  json.value(report.committed_updates);
  json.key("vote_divergences");
  json.value(report.vote_divergences);
  json.key("deadline_misses");
  json.value(report.deadline_misses);
  json.key("remaps_installed");
  json.value(report.remaps_installed);
  json.key("failed_trials");
  json.value(report.failed_trials);
  json.key("first_trial_error");
  json.value(report.first_trial_error);
  json.key("analysis_sound");
  json.value(report.analysis_sound);
  json.key("implementation_reliable");
  json.value(report.implementation_reliable);
  json.key("communicators");
  json.begin_array();
  for (const sim::CommAggregate& c : report.communicators) {
    json.begin_object();
    json.key("name");
    json.value(c.name);
    json.key("updates");
    json.value(c.updates);
    json.key("reliable_updates");
    json.value(c.reliable_updates);
    json.key("empirical");
    json.value(c.empirical);
    json.key("ci_low");
    json.value(c.interval.low);
    json.key("ci_high");
    json.value(c.interval.high);
    json.key("mean_limit_average");
    json.value(c.mean_limit_average);
    json.key("stddev_limit_average");
    json.value(c.stddev_limit_average);
    json.key("min_trial_rate");
    json.value(c.min_trial_rate);
    json.key("max_trial_rate");
    json.value(c.max_trial_rate);
    json.key("analytic_srg");
    json.value(c.analytic_srg);
    json.key("lrc");
    json.value(c.lrc);
    json.key("analysis_sound");
    json.value(c.analysis_sound);
    json.key("meets_lrc");
    json.value(c.meets_lrc);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

/// A reply owning `buffer`, its frame a view of it.
ServiceReply make_reply(std::shared_ptr<const std::string> buffer) {
  ServiceReply reply;
  reply.frame = *buffer;
  reply.buffer = std::move(buffer);
  return reply;
}

ServiceReply make_reply(std::string frame) {
  return make_reply(std::make_shared<const std::string>(std::move(frame)));
}

}  // namespace

/// A workload held hot: the built models and an SrgEvaluator primed
/// with the last fully analyzed implementation and every delta since —
/// the one copy of that implementation's reliability state. `mutex`
/// serializes all implementation-state access; the models and graph
/// flags are immutable after construction.
struct Service::Resident {
  std::uint64_t fingerprint = 0;
  lrt::Workload workload;
  bool memory_free = false;
  bool cycle_safe = false;

  std::mutex mutex;
  /// Present once a full implementation was analyzed: it stands for
  /// "an implementation is resident".
  std::optional<reliability::SrgEvaluator> evaluator;
  /// By TaskId: whether the resident implementation declares checkpoints
  /// for the task — the one mapping field outside the evaluator that a
  /// delta can invalidate (Implementation::Build needs re-executions
  /// there).
  std::vector<std::uint8_t> checkpointed;

  /// Full-report cache: the report's communicators array as one string,
  /// the reliability::write_verdict_json rows of every communicator
  /// (CommId order) joined by commas, plus where each row starts and the
  /// bit pattern of the SRG it encodes. Row c spans [report_row_starts[c],
  /// report_row_starts[c + 1] - 1); the extra last start sits one past
  /// the body, as if a comma followed the last row. A row's other fields
  /// are its fixed name and LRC or functions of its SRG, so a changed bit
  /// pattern is the only staleness signal, and the rows stay valid
  /// across implementations. Empty until the first report.
  std::string report_body;
  std::vector<std::size_t> report_row_starts;
  std::vector<std::uint64_t> report_row_srg_bits;

  /// Writes the analyze() report of the evaluator's state, re-encoding
  /// only the rows whose SRG changed since the last call and splicing
  /// them into the body in place. The bytes are reliability::write_json's
  /// over make_report of bit-identical SRGs (the SrgEvaluator contract),
  /// so every response matches the one-shot facade's. Call with `mutex`
  /// held and `evaluator` present.
  void write_report(JsonWriter& json) {
    const spec::Specification& spec = *workload.spec;
    const std::size_t count = spec.communicators().size();
    const bool fresh = report_row_srg_bits.size() != count;
    if (fresh) {
      // Every row starts empty; the splice below writes each one.
      report_body.assign(count > 0 ? count - 1 : 0, ',');
      report_row_starts.resize(count + 1);
      for (std::size_t c = 0; c <= count; ++c) report_row_starts[c] = c;
      report_row_srg_bits.resize(count);
    }
    // A spliced row of another length moves every later row by `shift`.
    std::ptrdiff_t shift = 0;
    for (std::size_t c = 0; c < count; ++c) {
      report_row_starts[c] += static_cast<std::size_t>(shift);
      const auto comm = static_cast<spec::CommId>(c);
      const double srg = evaluator->srg(comm);
      const auto bits = std::bit_cast<std::uint64_t>(srg);
      if (!fresh && bits == report_row_srg_bits[c]) continue;
      reliability::CommunicatorVerdict verdict;
      verdict.comm = comm;
      verdict.name = spec.communicator(comm).name;
      verdict.srg = srg;
      verdict.lrc = spec.communicator(comm).lrc;
      verdict.slack = verdict.srg - verdict.lrc;
      verdict.satisfied = evaluator->satisfied(comm);
      JsonWriter row;
      reliability::write_verdict_json(verdict, row);
      const std::string encoded = std::move(row).str();
      const std::size_t start = report_row_starts[c];
      const std::size_t length =
          report_row_starts[c + 1] + static_cast<std::size_t>(shift) - 1 -
          start;
      report_body.replace(start, length, encoded);
      shift += static_cast<std::ptrdiff_t>(encoded.size()) -
               static_cast<std::ptrdiff_t>(length);
      report_row_srg_bits[c] = bits;
    }
    report_row_starts[count] += static_cast<std::size_t>(shift);
    reliability::write_json(evaluator->all_lrcs_satisfied(), memory_free,
                            cycle_safe, report_body, json);
  }
};

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  if (options_.max_resident_workloads == 0) {
    options_.max_resident_workloads = 1;
  }
}

Service::~Service() = default;

std::int64_t Service::now_ms() const {
  return options_.clock_ms ? options_.clock_ms() : steady_now_ms();
}

obs::Sink* Service::sink() const {
  return obs::resolve_sink(options_.sink);
}

std::size_t Service::resident_count() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return residents_.size();
}

std::optional<std::size_t> Service::resident_trail_mark(
    std::uint64_t fingerprint) const {
  std::shared_ptr<Resident> resident;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = residents_.find(fingerprint);
    if (it == residents_.end()) return std::nullopt;
    resident = it->second.resident;
  }
  const std::lock_guard<std::mutex> lock(resident->mutex);
  if (!resident->evaluator.has_value()) return std::nullopt;
  return resident->evaluator->mark();
}

std::size_t Service::replay_cache_bytes() const {
  const std::lock_guard<std::mutex> lock(idempotency_mutex_);
  return replay_bytes_;
}

void Service::touch_locked(std::uint64_t fingerprint) {
  auto it = residents_.find(fingerprint);
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  it->second.lru_pos = lru_.begin();
}

Result<std::shared_ptr<Service::Resident>> Service::resolve_workload(
    const JsonValue& body, std::string_view where) {
  obs::Sink* s = sink();
  if (const JsonValue* fp_doc = body.find("fingerprint")) {
    if (!fp_doc->is_string()) {
      return InvalidArgumentError(std::string(where) +
                                  ".fingerprint must be a string");
    }
    const std::optional<std::uint64_t> fp =
        parse_fingerprint(fp_doc->string);
    if (!fp.has_value()) {
      return InvalidArgumentError(
          std::string(where) +
          ".fingerprint must be 16 lowercase hex digits");
    }
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = residents_.find(*fp);
    if (it == residents_.end()) {
      return NotFoundError("no resident workload with fingerprint " +
                           fp_doc->string + "; resend 'spec' and 'arch'");
    }
    touch_locked(*fp);
    if (s != nullptr) s->counter_add("service.cache_hits");
    return it->second.resident;
  }

  LRT_ASSIGN_OR_RETURN(const JsonValue* spec_doc,
                       json_member(body, "spec", where));
  LRT_ASSIGN_OR_RETURN(const JsonValue* arch_doc,
                       json_member(body, "arch", where));
  LRT_ASSIGN_OR_RETURN(spec::SpecificationConfig spec_config,
                       spec::specification_config_from_json(*spec_doc));
  LRT_ASSIGN_OR_RETURN(arch::ArchitectureConfig arch_config,
                       arch::architecture_config_from_json(*arch_doc));
  const std::uint64_t fp = lrt::fingerprint(spec_config, arch_config);
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = residents_.find(fp);
    if (it != residents_.end()) {
      touch_locked(fp);
      if (s != nullptr) s->counter_add("service.cache_hits");
      return it->second.resident;
    }
  }

  // Cold miss: build the models outside the cache lock.
  LRT_ASSIGN_OR_RETURN(lrt::Workload workload,
                       lrt::build_workload(std::move(spec_config),
                                           std::move(arch_config)));
  auto resident = std::make_shared<Resident>();
  resident->fingerprint = fp;
  resident->workload = std::move(workload);
  const spec::SpecificationGraph graph(*resident->workload.spec);
  resident->memory_free = graph.is_memory_free();
  resident->cycle_safe = graph.is_cycle_safe();

  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto [it, inserted] = residents_.try_emplace(fp);
  if (!inserted) {
    // Another worker built the same workload concurrently; keep theirs.
    touch_locked(fp);
    return it->second.resident;
  }
  lru_.push_front(fp);
  it->second = CacheEntry{std::move(resident), lru_.begin()};
  if (s != nullptr) s->counter_add("service.cache_misses");
  while (residents_.size() > options_.max_resident_workloads) {
    residents_.erase(lru_.back());
    lru_.pop_back();
    if (s != nullptr) s->counter_add("service.evictions");
  }
  return residents_.find(fp)->second.resident;
}

Status Service::do_analyze(const JsonValue& body, JsonWriter& json) {
  LRT_ASSIGN_OR_RETURN(const std::shared_ptr<Resident> resident,
                       resolve_workload(body, "request"));
  const JsonValue* impl_doc = body.find("implementation");
  const JsonValue* mutate = body.find("mutate");
  if ((impl_doc != nullptr) == (mutate != nullptr)) {
    return InvalidArgumentError(
        "request: analyze needs exactly one of 'implementation' and "
        "'mutate'");
  }
  // Delta analyzes answer with a compact verdict by default: the point
  // of the hit path is that its cost is one dirty-cone re-propagation,
  // not a full per-communicator report serialization. "full_report"
  // overrides either default.
  bool include_report = impl_doc != nullptr;
  if (const JsonValue* full = body.find("full_report")) {
    if (full->kind != JsonValue::Kind::kBool) {
      return InvalidArgumentError("request.full_report must be a boolean");
    }
    include_report = full->boolean;
  }

  const std::lock_guard<std::mutex> lock(resident->mutex);
  const spec::Specification& spec = *resident->workload.spec;
  const char* counter = "service.analyze_hits";
  if (impl_doc != nullptr) {
    // A full implementation builds and primes a fresh evaluator. Any
    // error leaves the resident state untouched.
    LRT_ASSIGN_OR_RETURN(impl::ImplementationConfig config,
                         impl::implementation_config_from_json(*impl_doc));
    LRT_ASSIGN_OR_RETURN(
        const impl::Implementation impl,
        lrt::build_implementation(resident->workload, std::move(config)));
    if (!resident->cycle_safe) {
      return reliability::require_cycle_safe(spec::SpecificationGraph(spec));
    }
    LRT_ASSIGN_OR_RETURN(reliability::SrgEvaluator evaluator,
                         reliability::SrgEvaluator::FromImplementation(impl));
    resident->evaluator = std::move(evaluator);
    resident->checkpointed.resize(spec.tasks().size());
    for (std::size_t t = 0; t < spec.tasks().size(); ++t) {
      resident->checkpointed[t] =
          impl.checkpoints(static_cast<spec::TaskId>(t)) > 0 ? 1 : 0;
    }
    counter = "service.analyze_cold";
  } else {
    // Delta addressing: {"task", "hosts", "reexecutions"?} against the
    // resident implementation. Validation mirrors Implementation::Build
    // (existing task, nonempty duplicate-free existing hosts, a
    // re-execution count >= 0, and >= 1 where checkpoints are declared)
    // and runs BEFORE any state change, so an invalid mutation cannot
    // poison the evaluator.
    LRT_ASSIGN_OR_RETURN(
        const std::string task_name,
        json_member_string(*mutate, "task", "request.mutate"));
    LRT_ASSIGN_OR_RETURN(const JsonValue* hosts_doc,
                         json_member(*mutate, "hosts", "request.mutate"));
    if (!hosts_doc->is_array()) {
      return InvalidArgumentError("request.mutate.hosts must be an array");
    }
    std::optional<int> new_reex;
    if (const JsonValue* reex_doc = mutate->find("reexecutions")) {
      LRT_ASSIGN_OR_RETURN(
          const std::int64_t value,
          json_to_int(*reex_doc, "request.mutate.reexecutions"));
      if (value < 0) {
        return InvalidArgumentError(
            "request.mutate.reexecutions must be >= 0");
      }
      if (value > std::numeric_limits<int>::max()) {
        return InvalidArgumentError(
            "request.mutate.reexecutions must be <= " +
            std::to_string(std::numeric_limits<int>::max()));
      }
      new_reex = static_cast<int>(value);
    }
    if (!resident->evaluator.has_value()) {
      return FailedPreconditionError(
          "no implementation is resident for workload " +
          format_fingerprint(resident->fingerprint) +
          "; send a full 'implementation' first");
    }
    const arch::Architecture& arch = *resident->workload.arch;
    const std::optional<spec::TaskId> task = spec.find_task(task_name);
    if (!task.has_value()) {
      return NotFoundError("request.mutate: unknown task '" + task_name +
                           "'");
    }
    if (hosts_doc->array.empty()) {
      return InvalidArgumentError("request.mutate: task '" + task_name +
                                  "' must map to at least one host");
    }
    std::vector<arch::HostId> host_ids;
    for (const JsonValue& host_doc : hosts_doc->array) {
      if (!host_doc.is_string()) {
        return InvalidArgumentError(
            "request.mutate.hosts entries must be strings");
      }
      const std::optional<arch::HostId> host =
          arch.find_host(host_doc.string);
      if (!host.has_value()) {
        return NotFoundError("request.mutate: unknown host '" +
                             host_doc.string + "'");
      }
      host_ids.push_back(*host);
    }
    std::sort(host_ids.begin(), host_ids.end());
    if (std::adjacent_find(host_ids.begin(), host_ids.end()) !=
        host_ids.end()) {
      return InvalidArgumentError("request.mutate: duplicate host for task '" +
                                  task_name + "'");
    }
    reliability::SrgEvaluator& evaluator = *resident->evaluator;
    const int reex = new_reex.value_or(evaluator.reexecutions(*task));
    if (reex == 0 &&
        resident->checkpointed[static_cast<std::size_t>(*task)] != 0) {
      return InvalidArgumentError("request.mutate: task '" + task_name +
                                  "' declares checkpoints, so it needs "
                                  "reexecutions >= 1");
    }
    // One dirty-cone re-propagation of lambda_t, whether the hosts or the
    // re-execution count changed; bit-identical to a cold analysis by the
    // SrgEvaluator contract.
    evaluator.set_task_hosts(*task, host_ids, reex);
    // The service never rolls back, so the undo trail would only grow.
    evaluator.discard_trail();
  }

  // Both kinds answer from the evaluator: O(|cset|) flag reads, and for a
  // full report O(|cset|) SRG compares plus re-encoding of the rows whose
  // SRG changed.
  const reliability::SrgEvaluator& evaluator = *resident->evaluator;
  std::int64_t unsatisfied = 0;
  const auto count = static_cast<spec::CommId>(spec.communicators().size());
  for (spec::CommId c = 0; c < count; ++c) {
    if (!evaluator.satisfied(c)) ++unsatisfied;
  }
  if (obs::Sink* s = sink()) s->counter_add(counter);

  // The frame's size is known to within a few bytes (the last report's
  // body, give or take the rows this delta re-encodes): one allocation.
  constexpr std::size_t kResultBytes = 96;   // fingerprint, verdict, count
  constexpr std::size_t kReportBytes = 256;  // report envelope, row growth
  json.reserve(json.size() + kResultBytes +
               (include_report ? kReportBytes + resident->report_body.size()
                               : 0));
  json.begin_object();
  json.key("fingerprint");
  json.value(format_fingerprint(resident->fingerprint));
  json.key("reliable");
  json.value(evaluator.all_lrcs_satisfied());
  json.key("unsatisfied_comms");
  json.value(unsatisfied);
  if (include_report) {
    json.key("report");
    resident->write_report(json);
  }
  json.end_object();
  return Status::Ok();
}

Status Service::do_synthesize(const JsonValue& body, JsonWriter& json) {
  LRT_ASSIGN_OR_RETURN(const std::shared_ptr<Resident> resident,
                       resolve_workload(body, "request"));
  LRT_ASSIGN_OR_RETURN(
      std::vector<impl::ImplementationConfig::SensorBinding> bindings,
      decode_sensor_bindings(body, "request"));
  synth::SynthesisOptions options;  // greedy, fast engine, one thread
  if (const JsonValue* strategy = body.find("strategy")) {
    if (!strategy->is_string()) {
      return InvalidArgumentError("request.strategy must be a string");
    }
    if (strategy->string == "greedy") {
      options.strategy = synth::SynthesisOptions::Strategy::kGreedy;
    } else if (strategy->string == "exhaustive") {
      options.strategy = synth::SynthesisOptions::Strategy::kExhaustive;
    } else {
      return InvalidArgumentError(
          "request.strategy must be 'greedy' or 'exhaustive'");
    }
  }
  LRT_ASSIGN_OR_RETURN(const synth::SynthesisResult result,
                       lrt::synthesize(resident->workload,
                                       std::move(bindings), options));
  json.begin_object();
  json.key("fingerprint");
  json.value(format_fingerprint(resident->fingerprint));
  json.key("synthesis");
  json.raw(synth::to_json(result));
  json.end_object();
  return Status::Ok();
}

Status Service::do_validate(const JsonValue& body, JsonWriter& json) {
  LRT_ASSIGN_OR_RETURN(const std::shared_ptr<Resident> resident,
                       resolve_workload(body, "request"));
  LRT_ASSIGN_OR_RETURN(const JsonValue* impl_doc,
                       json_member(body, "implementation", "request"));
  LRT_ASSIGN_OR_RETURN(impl::ImplementationConfig config,
                       impl::implementation_config_from_json(*impl_doc));
  LRT_ASSIGN_OR_RETURN(
      const impl::Implementation impl,
      lrt::build_implementation(resident->workload, std::move(config)));
  sim::MonteCarloOptions options;
  // One thread per campaign: the server's concurrent requests are the
  // parallelism; a pool per request would oversubscribe.
  options.threads = 1;
  if (const JsonValue* trials = body.find("trials")) {
    LRT_ASSIGN_OR_RETURN(options.trials,
                         json_to_int(*trials, "request.trials"));
    if (options.trials <= 0) {
      return InvalidArgumentError("request.trials must be > 0");
    }
  }
  if (const JsonValue* seed = body.find("seed")) {
    LRT_ASSIGN_OR_RETURN(const std::int64_t value,
                         json_to_int(*seed, "request.seed"));
    options.seed = static_cast<std::uint64_t>(value);
  }
  if (const JsonValue* periods = body.find("periods")) {
    LRT_ASSIGN_OR_RETURN(options.simulation.periods,
                         json_to_int(*periods, "request.periods"));
    if (options.simulation.periods <= 0) {
      return InvalidArgumentError("request.periods must be > 0");
    }
  }
  LRT_ASSIGN_OR_RETURN(const sim::ValidationReport report,
                       lrt::validate(resident->workload, impl, options));
  json.begin_object();
  json.key("fingerprint");
  json.value(format_fingerprint(resident->fingerprint));
  json.key("validation");
  write_validation_json(report, json);
  json.end_object();
  return Status::Ok();
}

Status Service::do_lint(const JsonValue& body, JsonWriter& json) {
  LRT_ASSIGN_OR_RETURN(const std::string source,
                       json_member_string(body, "source", "request"));
  lint::LintOptions options;
  if (const JsonValue* file = body.find("file")) {
    if (!file->is_string()) {
      return InvalidArgumentError("request.file must be a string");
    }
    options.file = file->string;
  }
  LRT_ASSIGN_OR_RETURN(const lint::LintResult result,
                       lrt::check(source, options));
  json.begin_object();
  json.key("flattened");
  json.value(result.flattened);
  json.key("arch_checked");
  json.value(result.arch_checked);
  json.key("errors");
  json.value(result.errors());
  json.key("warnings");
  json.value(result.warnings());
  json.key("lint");
  json.raw(lint::to_json(result.diagnostics));
  json.end_object();
  return Status::Ok();
}

Status Service::do_update_check(const JsonValue& body,
                                JsonWriter& json) {
  LRT_ASSIGN_OR_RETURN(const std::shared_ptr<Resident> resident,
                       resolve_workload(body, "request"));
  LRT_ASSIGN_OR_RETURN(const JsonValue* impl_doc,
                       json_member(body, "implementation", "request"));
  LRT_ASSIGN_OR_RETURN(impl::ImplementationConfig config,
                       impl::implementation_config_from_json(*impl_doc));
  LRT_ASSIGN_OR_RETURN(
      const impl::Implementation impl,
      lrt::build_implementation(resident->workload, std::move(config)));
  LRT_ASSIGN_OR_RETURN(const JsonValue* proposed_doc,
                       json_member(body, "proposed", "request"));
  LRT_ASSIGN_OR_RETURN(
      spec::SpecificationConfig proposed,
      spec::specification_config_from_json(*proposed_doc));
  LRT_ASSIGN_OR_RETURN(
      std::vector<impl::ImplementationConfig::SensorBinding> bindings,
      decode_sensor_bindings(body, "request"));

  // Propose-without-simulation: the verify stage (refinement fast path or
  // dirty-cone re-synthesis) runs to completion; the transaction stops at
  // kStaged/kRejected because no run ever reaches an install boundary.
  adapt::UpdateEngine engine(impl);
  LRT_RETURN_IF_ERROR(
      engine.propose(0, std::move(proposed), std::move(bindings)));
  const adapt::UpdateReport& report = engine.report();

  json.begin_object();
  json.key("fingerprint");
  json.value(format_fingerprint(resident->fingerprint));
  json.key("state");
  json.value(adapt::to_string(report.state));
  json.key("path");
  json.value(adapt::to_string(report.path));
  json.key("dirty_tasks");
  json.begin_array();
  for (const std::string& name : report.dirty_tasks) json.value(name);
  json.end_array();
  json.key("dirty_comms");
  json.begin_array();
  for (const std::string& name : report.dirty_comms) json.value(name);
  json.end_array();
  json.key("detail");
  json.value(report.detail);
  json.key("replication_count");
  json.value(report.replication_count);
  json.key("staged");
  if (engine.staged() != nullptr) {
    json.raw(impl::to_json(engine.staged()->to_config()));
  } else {
    json.null();
  }
  json.end_object();
  return Status::Ok();
}

Status Service::do_batch(const JsonValue& body, std::int64_t arrival_ms,
                         std::optional<std::int64_t> deadline_at_ms,
                         bool* deadline_in_batch, JsonWriter& json) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* items,
                       json_member(body, "items", "request"));
  if (!items->is_array()) {
    return InvalidArgumentError("request.items must be an array");
  }
  json.begin_object();
  json.key("items");
  json.begin_array();
  for (std::size_t i = 0; i < items->array.size(); ++i) {
    const JsonValue& item = items->array[i];
    const std::string where = "request.items[" + std::to_string(i) + "]";
    std::optional<std::string> item_id;
    if (const JsonValue* id = item.find("id");
        id != nullptr && id->is_string()) {
      item_id = id->string;
    }
    std::string item_frame;
    if (deadline_at_ms.has_value() && now_ms() > *deadline_at_ms) {
      // Partial-result degradation: finished items stand; the rest get
      // typed timeout entries.
      *deadline_in_batch = true;
      item_frame = make_error_frame(
          item_id,
          DeadlineExceededError("batch deadline expired before item " +
                                std::to_string(i) + " ran"));
    } else {
      Result<Request> parsed = parse_request(item, where);
      if (!parsed.ok()) {
        item_frame = make_error_frame(item_id, parsed.status());
      } else if (parsed->verb == Verb::kBatch ||
                 parsed->verb == Verb::kShutdown) {
        item_frame = make_error_frame(
            parsed->id,
            InvalidArgumentError(where + ": verb '" +
                                 verb_name(parsed->verb) +
                                 "' is not allowed inside a batch"));
      } else {
        std::optional<std::int64_t> effective = deadline_at_ms;
        if (parsed->deadline_ms.has_value()) {
          const std::int64_t item_deadline =
              arrival_ms + *parsed->deadline_ms;
          effective = effective.has_value()
                          ? std::min(*effective, item_deadline)
                          : item_deadline;
        }
        bool item_shutdown = false;
        const Status status =
            run_to_frame(*parsed, arrival_ms, effective, &item_shutdown,
                         deadline_in_batch, &item_frame);
        if (status.code() == StatusCode::kDeadlineExceeded) {
          *deadline_in_batch = true;
        }
      }
    }
    json.raw(item_frame);
  }
  json.end_array();
  json.end_object();
  return Status::Ok();
}

Status Service::run_verb(const Request& request, std::int64_t arrival_ms,
                         std::optional<std::int64_t> deadline_at_ms,
                         bool* shutdown, bool* deadline_in_batch,
                         JsonWriter& json) {
  if (deadline_at_ms.has_value() && now_ms() > *deadline_at_ms) {
    return DeadlineExceededError(
        "deadline of request '" + request.id + "' expired before the " +
        std::string(verb_name(request.verb)) + " verb ran");
  }
  switch (request.verb) {
    case Verb::kPing:
      json.begin_object();
      json.key("pong");
      json.value(true);
      json.end_object();
      return Status::Ok();
    case Verb::kShutdown:
      *shutdown = true;
      json.begin_object();
      json.key("stopping");
      json.value(true);
      json.end_object();
      return Status::Ok();
    case Verb::kAnalyze:
      return do_analyze(*request.body, json);
    case Verb::kSynthesize:
      return do_synthesize(*request.body, json);
    case Verb::kValidate:
      return do_validate(*request.body, json);
    case Verb::kLint:
      return do_lint(*request.body, json);
    case Verb::kUpdateCheck:
      return do_update_check(*request.body, json);
    case Verb::kBatch:
      return do_batch(*request.body, arrival_ms, deadline_at_ms,
                      deadline_in_batch, json);
  }
  return InternalError("unhandled verb");
}

Status Service::run_to_frame(const Request& request, std::int64_t arrival_ms,
                             std::optional<std::int64_t> deadline_at_ms,
                             bool* shutdown, bool* deadline_in_batch,
                             std::string* frame) {
  JsonWriter json;
  begin_ok_frame(request.id, json);
  Status status = run_verb(request, arrival_ms, deadline_at_ms, shutdown,
                           deadline_in_batch, json);
  if (status.ok()) {
    json.end_object();
    *frame = std::move(json).str();
  } else {
    *frame = make_error_frame(request.id, status);
  }
  return status;
}

void Service::remember_reply(const std::string& id, std::uint64_t digest,
                             std::shared_ptr<const std::string> frame) {
  const std::size_t bytes = frame->size();
  if (bytes > kMaxIdempotencyBytes) return;
  const std::lock_guard<std::mutex> lock(idempotency_mutex_);
  if (!replays_.emplace(id, Replay{digest, std::move(frame)}).second) return;
  replay_order_.push_back(id);
  replay_bytes_ += bytes;
  while (replays_.size() > options_.max_idempotency_entries ||
         replay_bytes_ > kMaxIdempotencyBytes) {
    const auto oldest = replays_.find(replay_order_.front());
    replay_bytes_ -= oldest->second.frame->size();
    replays_.erase(oldest);
    replay_order_.pop_front();
  }
}

ServiceReply Service::handle(std::string_view request_frame) {
  obs::Sink* s = sink();
  const auto started = std::chrono::steady_clock::now();
  const auto record_latency = [&] {
    if (s == nullptr) return;
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - started);
    s->histogram_record("service.request_us",
                        static_cast<double>(elapsed.count()));
  };
  if (s != nullptr) s->counter_add("service.requests");
  const std::int64_t arrival_ms = now_ms();

  const Result<JsonValue> document = parse_json(request_frame);
  if (!document.ok()) {
    ServiceReply reply =
        make_reply(make_error_frame(std::nullopt, document.status()));
    if (s != nullptr) s->counter_add("service.errors");
    record_latency();
    return reply;
  }
  const Result<Request> request = parse_request(*document, "request");
  if (!request.ok()) {
    std::optional<std::string> id;
    if (const JsonValue* id_doc = document->find("id");
        id_doc != nullptr && id_doc->is_string()) {
      id = id_doc->string;
    }
    ServiceReply reply = make_reply(make_error_frame(id, request.status()));
    if (s != nullptr) s->counter_add("service.errors");
    record_latency();
    return reply;
  }

  // A cached id replays only for the same request bytes; a reused id
  // with another body gets a typed error, never another request's reply.
  const std::uint64_t digest = hash_bytes(request_frame);
  bool id_seen = false;
  std::shared_ptr<const std::string> cached;  // null on a digest mismatch
  {
    const std::lock_guard<std::mutex> lock(idempotency_mutex_);
    const auto it = replays_.find(request->id);
    if (it != replays_.end()) {
      id_seen = true;
      if (it->second.digest == digest) cached = it->second.frame;
    }
  }
  if (id_seen) {
    ServiceReply reply;
    if (cached != nullptr) {
      if (s != nullptr) s->counter_add("service.idempotent_replays");
      reply = make_reply(std::move(cached));
    } else {
      if (s != nullptr) s->counter_add("service.errors");
      reply = make_reply(make_error_frame(
          request->id, AlreadyExistsError("request id '" + request->id +
                                          "' was already used by a "
                                          "different request")));
    }
    record_latency();
    return reply;
  }

  const obs::SpanGuard span(s, "service", verb_name(request->verb));
  std::optional<std::int64_t> deadline_at_ms;
  if (request->deadline_ms.has_value()) {
    deadline_at_ms = arrival_ms + *request->deadline_ms;
  }
  bool shutdown = false;
  bool deadline_in_batch = false;
  std::string frame;
  const Status status =
      run_to_frame(*request, arrival_ms, deadline_at_ms, &shutdown,
                   &deadline_in_batch, &frame);
  ServiceReply reply = make_reply(std::move(frame));
  reply.shutdown = shutdown;

  bool cacheable = !deadline_in_batch;
  if (status.ok()) {
    if (s != nullptr) s->counter_add("service.ok");
  } else {
    if (s != nullptr) s->counter_add("service.errors");
    if (status.code() == StatusCode::kUnavailable ||
        status.code() == StatusCode::kDeadlineExceeded) {
      cacheable = false;
    }
  }
  if (status.code() == StatusCode::kDeadlineExceeded) {
    if (s != nullptr) s->counter_add("service.deadline_expired");
  }
  if (deadline_in_batch && s != nullptr) {
    s->counter_add("service.deadline_expired");
  }

  // Retryable outcomes (kUnavailable, kDeadlineExceeded, partial
  // batches) are never remembered: a retry of the same id must get a
  // fresh attempt, not the failure replayed.
  if (cacheable) remember_reply(request->id, digest, reply.buffer);
  record_latency();
  return reply;
}

}  // namespace lrt::service
