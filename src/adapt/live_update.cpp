#include "adapt/live_update.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

namespace lrt::adapt {
namespace {

using spec::CommId;
using spec::TaskId;
using spec::Time;

/// A task's structural signature with communicators identified by NAME,
/// so it is comparable across two specifications whose CommIds differ.
struct TaskShape {
  std::vector<std::pair<std::string, std::int64_t>> inputs;
  std::vector<std::pair<std::string, std::int64_t>> outputs;
  spec::FailureModel model = spec::FailureModel::kSeries;
  std::vector<spec::Value> defaults;
};

TaskShape shape_of(const spec::Specification& spec, const spec::Task& task) {
  TaskShape shape;
  for (const spec::PortRef& port : task.inputs) {
    shape.inputs.emplace_back(spec.communicator(port.comm).name,
                              port.instance);
  }
  for (const spec::PortRef& port : task.outputs) {
    shape.outputs.emplace_back(spec.communicator(port.comm).name,
                               port.instance);
  }
  shape.model = task.model;
  shape.defaults = task.defaults;
  return shape;
}

bool same_shape(const TaskShape& a, const TaskShape& b) {
  if (a.inputs != b.inputs || a.outputs != b.outputs || a.model != b.model) {
    return false;
  }
  if (a.defaults.size() != b.defaults.size()) return false;
  for (std::size_t i = 0; i < a.defaults.size(); ++i) {
    if (!(a.defaults[i] == b.defaults[i])) return false;
  }
  return true;
}

std::string join(const std::vector<std::string>& names) {
  if (names.empty()) return "none";
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

std::string_view to_string(UpdatePath path) {
  switch (path) {
    case UpdatePath::kNone:
      return "none";
    case UpdatePath::kRefined:
      return "refined";
    case UpdatePath::kResynthesized:
      return "resynthesized";
  }
  return "?";
}

std::string_view to_string(UpdateState state) {
  switch (state) {
    case UpdateState::kIdle:
      return "idle";
    case UpdateState::kStaged:
      return "staged";
    case UpdateState::kProbation:
      return "probation";
    case UpdateState::kCommitted:
      return "committed";
    case UpdateState::kRolledBack:
      return "rolled-back";
    case UpdateState::kRejected:
      return "rejected";
  }
  return "?";
}

std::string UpdateReport::summary() const {
  std::string out = "live update: state=" + std::string(to_string(state)) +
                    " path=" + std::string(to_string(path)) + "\n";
  out += "  dirty tasks: " + join(dirty_tasks) + "\n";
  out += "  dirty comms: " + join(dirty_comms) + "\n";
  out += "  proposed@" + std::to_string(proposed_at) + " installed@" +
         std::to_string(installed_at) + " resolved@" +
         std::to_string(resolved_at) + "\n";
  if (!detail.empty()) out += "  " + detail + "\n";
  return out;
}

UpdateEngine::UpdateEngine(const impl::Implementation& initial,
                           LiveUpdateOptions options)
    : initial_(&initial),
      options_(std::move(options)),
      sink_(obs::resolve_sink(options_.sink)),
      active_(&initial),
      previous_(&initial) {}

Status UpdateEngine::propose(
    Time now, spec::SpecificationConfig proposed,
    std::vector<impl::ImplementationConfig::SensorBinding> sensor_bindings) {
  if (report_.state != UpdateState::kIdle) {
    return FailedPreconditionError(
        "live update: a transaction is already in flight (state " +
        std::string(to_string(report_.state)) + ")");
  }
  report_.proposed_at = now;
  if (sink_ != nullptr) {
    sink_->counter_add("adapt.updates_proposed");
    if (sink_->tracer() != nullptr) {
      span_start_us_ = sink_->tracer()->now_us();
    }
  }
  return verify(std::move(proposed), std::move(sensor_bindings));
}

Status UpdateEngine::verify(
    spec::SpecificationConfig proposed,
    std::vector<impl::ImplementationConfig::SensorBinding> bindings) {
  auto built_spec = spec::Specification::Build(std::move(proposed));
  if (!built_spec.ok()) {
    reject("proposed specification is malformed: " +
           std::string(built_spec.status().message()));
    return Status::Ok();
  }
  staged_spec_ =
      std::make_shared<const spec::Specification>(*std::move(built_spec));
  const spec::Specification& to = *staged_spec_;
  const spec::Specification& from = active_->specification();
  const arch::Architecture& arch = active_->architecture();

  // --- propose: diff the specifications into the dirty cone. -------------
  const auto num_tasks = static_cast<TaskId>(to.tasks().size());
  const auto num_comms = static_cast<CommId>(to.communicators().size());
  std::vector<std::uint8_t> task_dirty(static_cast<std::size_t>(num_tasks),
                                       0);
  std::vector<std::uint8_t> comm_dirty(static_cast<std::size_t>(num_comms),
                                       0);
  for (TaskId t = 0; t < num_tasks; ++t) {
    const spec::Task& task = to.task(t);
    const auto old_id = from.find_task(task.name);
    if (!old_id.has_value() ||
        !same_shape(shape_of(to, task), shape_of(from, from.task(*old_id)))) {
      task_dirty[static_cast<std::size_t>(t)] = 1;
    }
  }
  for (CommId c = 0; c < num_comms; ++c) {
    const spec::Communicator& comm = to.communicator(c);
    const auto old_id = from.find_communicator(comm.name);
    bool dirty = !old_id.has_value();
    if (!dirty) {
      const spec::Communicator& old = from.communicator(*old_id);
      dirty = comm.type != old.type || comm.period != old.period ||
              comm.lrc != old.lrc || !(comm.init == old.init);
      // A writer change rewires the dataflow even when the declaration
      // itself is untouched.
      if (!dirty) {
        const auto new_writer = to.writer_of(c);
        const auto old_writer = from.writer_of(*old_id);
        const std::string new_name =
            new_writer.has_value() ? to.task(*new_writer).name : "";
        const std::string old_name =
            old_writer.has_value() ? from.task(*old_writer).name : "";
        dirty = new_name != old_name;
      }
    }
    comm_dirty[static_cast<std::size_t>(c)] = dirty ? 1 : 0;
  }
  // Downstream closure: a dirty task taints its outputs, a dirty
  // communicator taints its readers — the SRG dependency direction.
  for (bool changed = true; changed;) {
    changed = false;
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (task_dirty[static_cast<std::size_t>(t)] == 0) continue;
      for (const spec::PortRef& port : to.task(t).outputs) {
        auto& flag = comm_dirty[static_cast<std::size_t>(port.comm)];
        if (flag == 0) {
          flag = 1;
          changed = true;
        }
      }
    }
    for (CommId c = 0; c < num_comms; ++c) {
      if (comm_dirty[static_cast<std::size_t>(c)] == 0) continue;
      for (const TaskId t : to.readers_of(c)) {
        auto& flag = task_dirty[static_cast<std::size_t>(t)];
        if (flag == 0) {
          flag = 1;
          changed = true;
        }
      }
    }
  }
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (task_dirty[static_cast<std::size_t>(t)] != 0) {
      report_.dirty_tasks.push_back(to.task(t).name);
    }
  }
  for (CommId c = 0; c < num_comms; ++c) {
    if (comm_dirty[static_cast<std::size_t>(c)] != 0) {
      report_.dirty_comms.push_back(to.communicator(c).name);
    }
  }
  std::sort(report_.dirty_tasks.begin(), report_.dirty_tasks.end());
  std::sort(report_.dirty_comms.begin(), report_.dirty_comms.end());

  // Sensor bindings: carry the running workload's by name (for
  // communicators that are still input communicators), then overlay the
  // caller's.
  const impl::ImplementationConfig active_config = active_->to_config();
  std::vector<impl::ImplementationConfig::SensorBinding> merged;
  for (const auto& binding : active_config.sensor_bindings) {
    const auto c = to.find_communicator(binding.communicator);
    if (!c.has_value() || !to.is_input_communicator(*c)) continue;
    const bool overridden = std::any_of(
        bindings.begin(), bindings.end(), [&binding](const auto& b) {
          return b.communicator == binding.communicator;
        });
    if (!overridden) merged.push_back(binding);
  }
  merged.insert(merged.end(), bindings.begin(), bindings.end());

  // --- verify, fast path: identity-kappa refinement. ---------------------
  // When the task sets match by name, carrying the running mapping over
  // gives a candidate that satisfies (a) and (b1) by construction; if
  // check_refinement discharges the rest, Lemmas 1-2 transfer
  // schedulability and reliability with zero search.
  bool names_match = from.tasks().size() == to.tasks().size();
  for (TaskId t = 0; names_match && t < num_tasks; ++t) {
    names_match = from.find_task(to.task(t).name).has_value();
  }
  if (names_match) {
    impl::ImplementationConfig carried;
    carried.name = active_config.name + "+update";
    for (TaskId t = 0; t < num_tasks; ++t) {
      const spec::Task& task = to.task(t);
      const TaskId old_id = *from.find_task(task.name);
      impl::ImplementationConfig::TaskMapping mapping;
      mapping.task = task.name;
      for (const arch::HostId h : active_->hosts_for(old_id)) {
        mapping.hosts.push_back(arch.host(h).name);
      }
      mapping.reexecutions = active_->reexecutions(old_id);
      mapping.checkpoints = active_->checkpoints(old_id);
      mapping.checkpoint_overhead = active_->checkpoint_overhead(old_id);
      carried.task_mappings.push_back(std::move(mapping));
    }
    carried.sensor_bindings = merged;
    auto candidate =
        impl::Implementation::Build(to, arch, std::move(carried));
    if (candidate.ok()) {
      refine::RefinementMap kappa;
      for (TaskId t = 0; t < num_tasks; ++t) {
        kappa.task_map.emplace_back(to.task(t).name, to.task(t).name);
      }
      auto verdict = refine::check_refinement(*candidate, *active_, kappa);
      if (verdict.ok()) {
        report_.refinement = *std::move(verdict);
        if (report_.refinement.refines) {
          staged_impl_ = std::make_unique<const impl::Implementation>(
              *std::move(candidate));
          report_.path = UpdatePath::kRefined;
          report_.replication_count = staged_impl_->replication_count();
          report_.state = UpdateState::kStaged;
          if (sink_ != nullptr) sink_->counter_add("adapt.updates_refined");
          return Status::Ok();
        }
      }
    }
  }

  // --- verify, slow path: re-synthesis restricted to the dirty cone. -----
  synth::SynthesisOptions opts = options_.synthesis;
  opts.sink = sink_;
  opts.pinned_hosts.assign(static_cast<std::size_t>(num_tasks), {});
  bool any_pin = false;
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (task_dirty[static_cast<std::size_t>(t)] != 0) continue;
    const auto old_id = from.find_task(to.task(t).name);
    if (!old_id.has_value()) continue;
    opts.pinned_hosts[static_cast<std::size_t>(t)] =
        active_->hosts_for(*old_id);
    any_pin = true;
  }
  if (opts.task_redundancy.empty()) {
    // Re-spend the running workload's time redundancy on carried tasks.
    opts.task_redundancy.resize(static_cast<std::size_t>(num_tasks));
    for (TaskId t = 0; t < num_tasks; ++t) {
      const auto old_id = from.find_task(to.task(t).name);
      if (!old_id.has_value()) continue;
      auto& redundancy = opts.task_redundancy[static_cast<std::size_t>(t)];
      redundancy.reexecutions = active_->reexecutions(*old_id);
      redundancy.checkpoints = active_->checkpoints(*old_id);
      redundancy.checkpoint_overhead = active_->checkpoint_overhead(*old_id);
    }
  }
  auto synthesized = synth::synthesize(to, arch, merged, opts);
  if (!synthesized.ok() &&
      synthesized.status().code() == StatusCode::kUnsatisfiable && any_pin) {
    // The changed region alone cannot absorb the update; trade locality
    // for a global search before giving up.
    opts.pinned_hosts.clear();
    synthesized = synth::synthesize(to, arch, merged, opts);
  }
  if (!synthesized.ok()) {
    reject("re-synthesis failed: " +
           std::string(synthesized.status().message()));
    return Status::Ok();
  }
  auto built =
      impl::Implementation::Build(to, arch, std::move(synthesized->config));
  if (!built.ok()) {
    reject("synthesized mapping failed to build: " +
           std::string(built.status().message()));
    return Status::Ok();
  }
  staged_impl_ =
      std::make_unique<const impl::Implementation>(*std::move(built));
  report_.path = UpdatePath::kResynthesized;
  report_.replication_count = staged_impl_->replication_count();
  report_.state = UpdateState::kStaged;
  if (sink_ != nullptr) sink_->counter_add("adapt.updates_resynthesized");
  return Status::Ok();
}

void UpdateEngine::reject(const std::string& why) {
  report_.detail = why;
  staged_impl_.reset();
  resolve(report_.proposed_at, UpdateState::kRejected);
}

void UpdateEngine::resolve(Time now, UpdateState terminal) {
  report_.state = terminal;
  report_.resolved_at = now;
  if (sink_ != nullptr && sink_->tracer() != nullptr) {
    sink_->tracer()->complete(
        "adapt", "update", span_start_us_, sink_->tracer()->now_us(),
        {{"state", static_cast<double>(terminal)},
         {"path", static_cast<double>(report_.path)}});
  }
}

void UpdateEngine::on_update(Time now, CommId comm, bool reliable,
                             int /*contributors*/) {
  if (report_.state != UpdateState::kProbation || rollback_pending_) return;
  probation_->record_update(now, comm, reliable);
  if (probation_->state(comm) == LrcState::kViolated) {
    rollback_pending_ = true;
    report_.detail = "probation: LRC of '" +
                     staged_spec_->communicator(comm).name +
                     "' statistically violated (windowed rate " +
                     std::to_string(probation_->windowed_rate(comm)) +
                     " vs mu " +
                     std::to_string(staged_spec_->communicator(comm).lrc) +
                     ")";
  }
}

const impl::Implementation* UpdateEngine::on_update_point(Time now) {
  if (report_.state == UpdateState::kStaged) {
    if (now < options_.earliest_install) return nullptr;
    report_.installed_at = now;
    previous_ = active_;
    active_ = staged_impl_.get();
    if (sink_ != nullptr) {
      sink_->counter_add("adapt.updates_installed");
      sink_->instant("adapt", "update_install",
                     {{"t", static_cast<double>(now)}});
    }
    if (options_.probation_periods <= 0) {
      resolve(now, UpdateState::kCommitted);
    } else {
      report_.state = UpdateState::kProbation;
      probation_ =
          std::make_unique<LrcMonitor>(*staged_spec_, options_.lrc);
      probation_->reset(now);
      probation_ends_ =
          now + options_.probation_periods * staged_spec_->hyperperiod();
    }
    return staged_impl_.get();
  }
  if (report_.state == UpdateState::kProbation) {
    if (rollback_pending_) {
      const impl::Implementation* back = previous_;
      active_ = back;
      if (sink_ != nullptr) {
        sink_->counter_add("adapt.updates_rolled_back");
        sink_->instant("adapt", "update_rollback",
                       {{"t", static_cast<double>(now)}});
      }
      resolve(now, UpdateState::kRolledBack);
      return back;
    }
    if (now >= probation_ends_) resolve(now, UpdateState::kCommitted);
  }
  return nullptr;
}

}  // namespace lrt::adapt
