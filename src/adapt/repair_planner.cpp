#include "adapt/repair_planner.h"

#include <algorithm>

#include "sched/schedulability.h"
#include "support/strings.h"

namespace lrt::adapt {
namespace {

using arch::HostId;
using spec::CommId;
using spec::TaskId;

/// The current implementation's per-task time redundancy, carried into
/// every repair candidate so the re-execution budget is re-spent on the
/// replacement hosts.
std::vector<synth::SynthesisOptions::TaskRedundancy> redundancy_of(
    const impl::Implementation& current) {
  const auto num_tasks = current.specification().tasks().size();
  std::vector<synth::SynthesisOptions::TaskRedundancy> out(num_tasks);
  bool any = false;
  for (TaskId t = 0; t < static_cast<TaskId>(num_tasks); ++t) {
    auto& slot = out[static_cast<std::size_t>(t)];
    slot.reexecutions = current.reexecutions(t);
    slot.checkpoints = current.checkpoints(t);
    slot.checkpoint_overhead = current.checkpoint_overhead(t);
    any = any || slot.reexecutions > 0;
  }
  if (!any) out.clear();
  return out;
}

/// Sensor bindings of the current implementation, by name.
std::vector<impl::ImplementationConfig::SensorBinding> bindings_of(
    const impl::Implementation& current) {
  return current.to_config().sensor_bindings;
}

/// The reliability ceiling on the survivors: every task replicated on
/// every surviving host (replication never lowers an SRG), keeping the
/// current redundancy. Its per-communicator slack bounds what any repair
/// can achieve and therefore orders the shedding.
impl::ImplementationConfig ceiling_config(
    const impl::Implementation& current,
    const std::vector<HostId>& survivors) {
  const arch::Architecture& arch = current.architecture();
  impl::ImplementationConfig config = current.to_config();
  config.name = "repair-ceiling";
  for (auto& mapping : config.task_mappings) {
    mapping.hosts.clear();
    for (const HostId h : survivors) {
      mapping.hosts.push_back(arch.host(h).name);
    }
  }
  return config;
}

}  // namespace

std::string RepairPlan::describe() const {
  std::string out = feasible ? "repair: feasible mapping found"
                             : "repair: best-effort degraded mapping only";
  if (shed_communicators.empty()) {
    out += ", every LRC preserved";
  } else {
    out += ", shed LRCs (in slack order): " +
           join(shed_communicators, ", ");
  }
  out += "; schedulable=";
  out += schedulable ? "yes" : "no";
  out += ", candidates=" + std::to_string(candidates_evaluated);
  return out;
}

Result<RepairPlan> plan_repair(const impl::Implementation& current,
                               std::span<const arch::HostId> dead_hosts,
                               const RepairPolicy& policy) {
  const spec::Specification& spec = current.specification();
  const arch::Architecture& arch = current.architecture();
  const auto num_hosts = static_cast<HostId>(arch.hosts().size());
  const auto num_comms = static_cast<CommId>(spec.communicators().size());

  std::vector<bool> dead(static_cast<std::size_t>(num_hosts), false);
  for (const HostId h : dead_hosts) {
    if (h < 0 || h >= num_hosts) {
      return InvalidArgumentError("repair: dead host " + std::to_string(h) +
                                  " is outside the architecture");
    }
    dead[static_cast<std::size_t>(h)] = true;
  }
  std::vector<HostId> survivors;
  for (HostId h = 0; h < num_hosts; ++h) {
    if (!dead[static_cast<std::size_t>(h)]) survivors.push_back(h);
  }
  if (survivors.empty()) {
    return FailedPreconditionError(
        "repair: no surviving host to remap onto");
  }

  synth::SynthesisOptions options = policy.synthesis;
  options.allowed_hosts = survivors;
  options.task_redundancy = redundancy_of(current);
  options.relaxed_lrcs.clear();
  const auto bindings = bindings_of(current);

  RepairPlan plan;

  // Achievable slack per communicator, measured on the reliability
  // ceiling. Computed once: shedding does not change any SRG.
  auto ceiling_impl = impl::Implementation::Build(
      spec, arch, ceiling_config(current, survivors));
  if (!ceiling_impl.ok()) return ceiling_impl.status();
  LRT_ASSIGN_OR_RETURN(const reliability::ReliabilityReport ceiling_report,
                       reliability::analyze(*ceiling_impl));

  std::vector<bool> shed(static_cast<std::size_t>(num_comms), false);
  while (true) {
    auto synthesized = synth::synthesize(spec, arch, bindings, options);
    if (synthesized.ok()) {
      plan.feasible = true;
      plan.config = std::move(synthesized->config);
      plan.config.name = current.name() + "-repaired";
      plan.candidates_evaluated += synthesized->candidates_evaluated;
      break;
    }
    if (synthesized.status().code() != StatusCode::kUnsatisfiable) {
      return synthesized.status();
    }

    // Shed the unshed communicator with the least achievable slack
    // (ties: lowest CommId), then retry with its LRC waived.
    CommId victim = -1;
    double victim_slack = 0.0;
    for (const reliability::CommunicatorVerdict& verdict :
         ceiling_report.verdicts) {
      if (shed[static_cast<std::size_t>(verdict.comm)]) continue;
      if (victim == -1 || verdict.slack < victim_slack) {
        victim = verdict.comm;
        victim_slack = verdict.slack;
      }
    }
    if (victim == -1) {
      // Every LRC already waived and synthesis still fails: nothing on
      // the survivors is schedulable. Fall back to the ceiling mapping.
      plan.feasible = false;
      plan.config = ceiling_config(current, survivors);
      plan.config.name = current.name() + "-degraded";
      break;
    }
    shed[static_cast<std::size_t>(victim)] = true;
    plan.shed_ids.push_back(victim);
    plan.shed_communicators.push_back(spec.communicator(victim).name);
    options.relaxed_lrcs.push_back(victim);
  }

  // Re-validate the final mapping with the full Section 3 analysis and the
  // schedulability check — the committed numbers, not the search's.
  auto final_impl = impl::Implementation::Build(spec, arch, plan.config);
  if (!final_impl.ok()) return final_impl.status();
  LRT_ASSIGN_OR_RETURN(plan.reliability, reliability::analyze(*final_impl));
  LRT_ASSIGN_OR_RETURN(const sched::SchedulabilityReport sched_report,
                       sched::analyze_schedulability(*final_impl));
  plan.schedulable = sched_report.schedulable;
  return plan;
}

}  // namespace lrt::adapt
