#include "reliability/analysis.h"

#include <algorithm>
#include <cmath>

#include "spec/spec_graph.h"
#include "support/json.h"
#include "support/math_util.h"
#include "support/strings.h"

namespace lrt::reliability {
namespace {

using spec::CommId;
using spec::FailureModel;
using spec::TaskId;

/// One SRG update for communicator `c` given current input SRGs.
double srg_rule(const impl::Implementation& impl, CommId c,
                const std::vector<double>& srgs,
                const std::vector<double>& task_lambdas) {
  const spec::Specification& spec = impl.specification();
  const auto writer = spec.writer_of(c);
  if (!writer.has_value()) {
    // Rule (a): sensor-updated input communicator. A communicator that is
    // neither written nor read keeps its (reliable) initial value forever.
    if (spec.is_input_communicator(c) && !spec.readers_of(c).empty()) {
      return impl.architecture()
          .sensor(impl.sensor_for(c))
          .reliability;
    }
    return 1.0;
  }
  const TaskId t = *writer;
  const double lambda_t = task_lambdas[static_cast<std::size_t>(t)];
  const spec::Task& task = spec.task(t);
  std::vector<double> inputs;
  inputs.reserve(spec.input_comm_set(t).size());
  for (const CommId in : spec.input_comm_set(t)) {
    inputs.push_back(srgs[static_cast<std::size_t>(in)]);
  }
  switch (task.model) {
    case FailureModel::kSeries:
      return lambda_t * series_and(inputs);
    case FailureModel::kParallel:
      return lambda_t * parallel_or(inputs);
    case FailureModel::kIndependent:
      return lambda_t;
  }
  return 0.0;
}

std::vector<double> all_task_lambdas(const impl::Implementation& impl) {
  const std::size_t n = impl.specification().tasks().size();
  std::vector<double> lambdas(n);
  for (std::size_t t = 0; t < n; ++t) {
    lambdas[t] = task_reliability(impl, static_cast<TaskId>(t));
  }
  return lambdas;
}

ReliabilityReport make_report(const impl::Implementation& impl,
                              const std::vector<double>& srgs,
                              bool memory_free, bool cycle_safe) {
  const spec::Specification& spec = impl.specification();
  ReliabilityReport report;
  report.memory_free = memory_free;
  report.cycle_safe = cycle_safe;
  report.reliable = true;
  for (CommId c = 0; c < static_cast<CommId>(spec.communicators().size());
       ++c) {
    const spec::Communicator& comm = spec.communicator(c);
    CommunicatorVerdict verdict;
    verdict.comm = c;
    verdict.name = comm.name;
    verdict.srg = srgs[static_cast<std::size_t>(c)];
    verdict.lrc = comm.lrc;
    verdict.slack = verdict.srg - verdict.lrc;
    verdict.satisfied = approx_ge(verdict.srg, verdict.lrc);
    report.reliable = report.reliable && verdict.satisfied;
    report.verdicts.push_back(std::move(verdict));
  }
  return report;
}

}  // namespace

Status require_cycle_safe(const spec::SpecificationGraph& graph) {
  if (graph.is_cycle_safe()) return Status::Ok();
  return FailedPreconditionError(
      "reliability analysis requires a cycle-safe specification:\n" +
      graph.describe_cycles());
}

double task_reliability(const impl::Implementation& impl, TaskId task) {
  // Time redundancy: k re-executions make the per-host invocation succeed
  // with 1 - (1 - hrel)^(k+1) (independent transient faults).
  const int attempts = impl.reexecutions(task) + 1;
  std::vector<double> host_rels;
  for (const arch::HostId h : impl.hosts_for(task)) {
    const double fail_once = 1.0 - impl.architecture().host(h).reliability;
    host_rels.push_back(1.0 - std::pow(fail_once, attempts));
  }
  // lambda_t = 1 - prod (1 - hrel(h)): at least one replication survives.
  return parallel_or(host_rels);
}

Result<std::vector<double>> compute_srgs(const impl::Implementation& impl) {
  const spec::Specification& spec = impl.specification();
  const spec::SpecificationGraph graph(spec);
  LRT_ASSIGN_OR_RETURN(const std::vector<CommId> order,
                       graph.reliability_order());

  const std::vector<double> lambdas = all_task_lambdas(impl);
  std::vector<double> srgs(spec.communicators().size(), 1.0);
  for (const CommId c : order) {
    srgs[static_cast<std::size_t>(c)] = srg_rule(impl, c, srgs, lambdas);
  }
  return srgs;
}

std::vector<double> compute_srgs_fixpoint(const impl::Implementation& impl,
                                          int max_iterations,
                                          double epsilon) {
  const spec::Specification& spec = impl.specification();
  const std::vector<double> lambdas = all_task_lambdas(impl);
  std::vector<double> srgs(spec.communicators().size(), 1.0);
  // The update operator is monotone and starts at the top element, so the
  // iteration descends to the greatest fixpoint.
  for (int iter = 0; iter < max_iterations; ++iter) {
    double delta = 0.0;
    std::vector<double> next(srgs.size());
    for (CommId c = 0; c < static_cast<CommId>(srgs.size()); ++c) {
      next[static_cast<std::size_t>(c)] = srg_rule(impl, c, srgs, lambdas);
      delta = std::max(delta,
                       std::fabs(next[static_cast<std::size_t>(c)] -
                                 srgs[static_cast<std::size_t>(c)]));
    }
    srgs = std::move(next);
    if (delta <= epsilon) break;
  }
  // Snap vanishing values: an unsafe cycle converges geometrically to 0 but
  // the iteration stops at a tiny residual. 1e-9 is far below any
  // meaningful reliability, so the snap cannot mask a real fixpoint.
  constexpr double kZeroSnap = 1e-9;
  for (double& srg : srgs) {
    if (srg < kZeroSnap) srg = 0.0;
  }
  return srgs;
}

std::vector<CommunicatorVerdict> ReliabilityReport::violations() const {
  std::vector<CommunicatorVerdict> out;
  std::copy_if(verdicts.begin(), verdicts.end(), std::back_inserter(out),
               [](const CommunicatorVerdict& v) { return !v.satisfied; });
  return out;
}

std::string ReliabilityReport::summary() const {
  std::string out = reliable ? "RELIABLE" : "NOT RELIABLE";
  out += memory_free ? " (memory-free)" : (cycle_safe ? " (cycle-safe)" : "");
  out += "\n";
  for (const CommunicatorVerdict& v : verdicts) {
    out += "  " + v.name + ": srg=" + format_double(v.srg) +
           " lrc=" + format_double(v.lrc) +
           (v.satisfied ? " OK" : " VIOLATED") + "\n";
  }
  return out;
}

std::string to_json(const ReliabilityReport& report) {
  JsonWriter json;
  write_json(report, json);
  return std::move(json).str();
}

void write_verdict_json(const CommunicatorVerdict& verdict,
                        JsonWriter& json) {
  json.begin_object();
  json.key("name");
  json.value(verdict.name);
  json.key("srg");
  json.value(verdict.srg);
  json.key("lrc");
  json.value(verdict.lrc);
  json.key("satisfied");
  json.value(verdict.satisfied);
  json.key("slack");
  json.value(verdict.slack);
  json.end_object();
}

namespace {

/// The document envelope around the communicators array; `write_rows`
/// emits the array's elements.
template <typename WriteRows>
void write_report_envelope(bool reliable, bool memory_free, bool cycle_safe,
                           WriteRows&& write_rows, JsonWriter& json) {
  json.begin_object();
  json.key("reliable");
  json.value(reliable);
  json.key("memory_free");
  json.value(memory_free);
  json.key("cycle_safe");
  json.value(cycle_safe);
  json.key("communicators");
  json.begin_array();
  write_rows();
  json.end_array();
  json.end_object();
}

}  // namespace

void write_json(const ReliabilityReport& report, JsonWriter& json) {
  write_report_envelope(
      report.reliable, report.memory_free, report.cycle_safe,
      [&] {
        for (const CommunicatorVerdict& verdict : report.verdicts) {
          write_verdict_json(verdict, json);
        }
      },
      json);
}

void write_json(bool reliable, bool memory_free, bool cycle_safe,
                std::string_view verdicts_body, JsonWriter& json) {
  write_report_envelope(
      reliable, memory_free, cycle_safe, [&] { json.raw(verdicts_body); },
      json);
}

Result<ReliabilityReport> report_from_json(const JsonValue& document) {
  ReliabilityReport report;
  LRT_ASSIGN_OR_RETURN(report.reliable,
                       json_member_bool(document, "reliable", "report"));
  LRT_ASSIGN_OR_RETURN(
      report.memory_free,
      json_member_bool(document, "memory_free", "report"));
  LRT_ASSIGN_OR_RETURN(report.cycle_safe,
                       json_member_bool(document, "cycle_safe", "report"));
  LRT_ASSIGN_OR_RETURN(const JsonValue* comms,
                       json_member(document, "communicators", "report"));
  if (!comms->is_array()) {
    return InvalidArgumentError("report.communicators must be an array");
  }
  for (std::size_t i = 0; i < comms->array.size(); ++i) {
    const std::string path =
        "report.communicators[" + std::to_string(i) + "]";
    const JsonValue& entry = comms->array[i];
    CommunicatorVerdict verdict;
    verdict.comm = static_cast<spec::CommId>(i);
    LRT_ASSIGN_OR_RETURN(verdict.name,
                         json_member_string(entry, "name", path));
    LRT_ASSIGN_OR_RETURN(verdict.srg,
                         json_member_double(entry, "srg", path));
    LRT_ASSIGN_OR_RETURN(verdict.lrc,
                         json_member_double(entry, "lrc", path));
    LRT_ASSIGN_OR_RETURN(verdict.satisfied,
                         json_member_bool(entry, "satisfied", path));
    LRT_ASSIGN_OR_RETURN(verdict.slack,
                         json_member_double(entry, "slack", path));
    report.verdicts.push_back(std::move(verdict));
  }
  return report;
}

Result<ReliabilityReport> analyze(const impl::Implementation& impl) {
  const spec::SpecificationGraph graph(impl.specification());
  LRT_RETURN_IF_ERROR(require_cycle_safe(graph));
  LRT_ASSIGN_OR_RETURN(const std::vector<double> srgs, compute_srgs(impl));
  return make_report(impl, srgs, graph.is_memory_free(),
                     graph.is_cycle_safe());
}

Result<ReliabilityReport> analyze_time_dependent(
    std::span<const impl::Implementation> phases) {
  if (phases.empty()) {
    return InvalidArgumentError("time-dependent analysis needs >= 1 phase");
  }
  const spec::Specification& spec = phases.front().specification();
  for (const impl::Implementation& phase : phases) {
    if (&phase.specification() != &spec ||
        &phase.architecture() != &phases.front().architecture()) {
      return InvalidArgumentError(
          "all phases of a time-dependent implementation must share one "
          "specification and architecture");
    }
  }
  const spec::SpecificationGraph graph(spec);
  LRT_RETURN_IF_ERROR(require_cycle_safe(graph));

  // Long-run average over phases: iterations cycle deterministically, so by
  // the SLLN applied per congruence class the limit average of the abstract
  // trace is the mean of the per-phase SRGs.
  std::vector<double> mean(spec.communicators().size(), 0.0);
  for (const impl::Implementation& phase : phases) {
    LRT_ASSIGN_OR_RETURN(const std::vector<double> srgs,
                         compute_srgs(phase));
    for (std::size_t c = 0; c < mean.size(); ++c) mean[c] += srgs[c];
  }
  for (double& m : mean) m /= static_cast<double>(phases.size());
  return make_report(phases.front(), mean, graph.is_memory_free(),
                     graph.is_cycle_safe());
}

}  // namespace lrt::reliability
