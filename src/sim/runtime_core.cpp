#include "sim/runtime_core.h"

#include <algorithm>
#include <cassert>

namespace lrt::sim::detail {

using arch::HostId;
using spec::CommId;
using spec::TaskId;
using spec::Time;
using spec::Value;

namespace {

// Draw-site tags: every stochastic decision is a pure function of
// (seed, site, time, entity ids[, attempt]) via keyed_bernoulli, so the
// outcome never depends on which engine evaluates it, or in what order.
// This is what lets the event engine skip instants the tick engine visits
// and still consume "the same randomness".
constexpr std::uint64_t kSensorDraw = 1;
constexpr std::uint64_t kInvocationDraw = 2;
constexpr std::uint64_t kBroadcastDraw = 3;

}  // namespace

RuntimeCore::RuntimeCore(std::span<const impl::Implementation> phases,
                         Environment& env, const SimulationOptions& options)
    : phases_(phases),
      spec_(&phases.front().specification()),
      arch_(phases.front().architecture()),
      env_(env),
      options_(options),
      monitor_(options.monitor),
      sink_(obs::resolve_sink(options.sink)),
      tracer_(sink_ != nullptr ? sink_->tracer() : nullptr) {}

Status RuntimeCore::init() {
  const std::size_t num_comms = spec_->communicators().size();
  const std::size_t num_hosts = arch_.hosts().size();
  hyperperiod_ = spec_->hyperperiod();
  // The harmonic grid, derived once at Build time (gcd of the periods).
  step_ = spec_->base_period();
  // The horizon never moves again: a hot-swap may change the grid and the
  // period, but the run still ends where the initial workload said.
  duration_ = hyperperiod_ * options_.periods;

  // Initial replications: instance 0 carries the init value everywhere.
  values_.assign(num_hosts, {});
  for (auto& host_values : values_) {
    host_values.reserve(num_comms);
    for (const auto& comm : spec_->communicators()) {
      host_values.push_back(comm.init);
    }
  }
  host_up_.assign(num_hosts, true);

  latched_.assign(num_hosts, {});
  for (auto& host_latches : latched_) {
    for (const auto& task : spec_->tasks()) {
      host_latches.emplace_back(task.inputs.size(), Value::bottom());
    }
  }

  write_instants_.assign(num_comms, {});
  for (TaskId t = 0; t < static_cast<TaskId>(spec_->tasks().size()); ++t) {
    for (const spec::PortRef& port : spec_->task(t).outputs) {
      write_instants_[static_cast<std::size_t>(port.comm)].push_back(
          spec_->communicator(port.comm).period * port.instance);
    }
  }

  host_events_ = options_.faults.host_events;
  std::stable_sort(host_events_.begin(), host_events_.end(),
                   [](const FaultPlan::HostEvent& a,
                      const FaultPlan::HostEvent& b) {
                     return a.time < b.time;
                   });
  for (const auto& event : host_events_) {
    if (event.host < 0 || event.host >= static_cast<HostId>(num_hosts)) {
      return OutOfRangeError("host event references host " +
                             std::to_string(event.host));
    }
  }

  accumulators_.assign(num_comms, {});
  update_accums_.assign(num_comms, {});
  record_values_.assign(num_comms, false);
  for (const std::string& name : options_.record_values_for) {
    const auto comm = spec_->find_communicator(name);
    if (!comm.has_value()) {
      // With a monitor installed the name may belong to a specification a
      // live update splices in later; its trace then starts at the swap.
      if (monitor_ == nullptr) {
        return NotFoundError("record_values_for references unknown "
                             "communicator '" + name + "'");
      }
      result_.value_traces.emplace(name, std::vector<Value>{});
      continue;
    }
    record_values_[static_cast<std::size_t>(*comm)] = true;
    result_.value_traces.emplace(name, std::vector<Value>{});
  }

  is_actuator_.assign(num_comms, false);
  if (options_.actuator_comms.empty()) {
    for (CommId c = 0; c < static_cast<CommId>(num_comms); ++c) {
      is_actuator_[static_cast<std::size_t>(c)] =
          spec_->is_output_communicator(c) && !spec_->is_input_communicator(c);
    }
  } else {
    for (const std::string& name : options_.actuator_comms) {
      const auto comm = spec_->find_communicator(name);
      if (!comm.has_value()) {
        if (monitor_ == nullptr) {
          return NotFoundError("actuator_comms references unknown "
                               "communicator '" + name + "'");
        }
        continue;  // may arrive with a later hot-swap
      }
      is_actuator_[static_cast<std::size_t>(*comm)] = true;
    }
  }

  if (options_.model_execution_time) {
    run_queues_.assign(num_hosts, {});
    wcet_.assign(spec_->tasks().size() * num_hosts, 1);
    wctt_.assign(spec_->tasks().size() * num_hosts, 1);
    for (TaskId t = 0; t < static_cast<TaskId>(spec_->tasks().size()); ++t) {
      for (HostId h = 0; h < static_cast<HostId>(num_hosts); ++h) {
        const std::size_t index =
            static_cast<std::size_t>(t) * num_hosts +
            static_cast<std::size_t>(h);
        LRT_ASSIGN_OR_RETURN(wcet_[index],
                             arch_.wcet(spec_->task(t).name, h));
        LRT_ASSIGN_OR_RETURN(wctt_[index],
                             arch_.wctt(spec_->task(t).name, h));
      }
    }
  }

  if (tracer_ != nullptr) period_start_us_ = tracer_->now_us();
  return Status::Ok();
}

Status RuntimeCore::tick(Time now) {
  apply_host_events(now);
  const bool boundary = (now - epoch_) % hyperperiod_ == 0;
  // One span per specification period: the dispatch granularity the
  // paper reasons about, and coarse enough to stay cheap when enabled.
  // Period indices restart at a hot-swap epoch (the incoming
  // specification's own period count).
  if (tracer_ != nullptr && boundary && now > epoch_) {
    const std::int64_t end_us = tracer_->now_us();
    tracer_->complete(
        "sim", "period", period_start_us_, end_us,
        {{"period",
          static_cast<double>((now - epoch_) / hyperperiod_ - 1)}});
    period_start_us_ = end_us;
  }
  // Remap point: mode switches happen at period boundaries only, so a
  // repair never tears a LET window apart.
  if (monitor_ != nullptr && boundary) {
    if (const impl::Implementation* next = monitor_->on_period_boundary(now)) {
      if (&next->specification() != spec_ ||
          &next->architecture() != &arch_) {
        return InvalidArgumentError(
            "monitor remap must target the running specification and "
            "architecture");
      }
      if (next != override_) {
        override_ = next;
        ++result_.remaps_installed;
        if (tracer_ != nullptr)
          tracer_->instant("sim", "remap", {{"t", static_cast<double>(now)}});
      }
    }
  }
  commit_updates(now);
  record_and_actuate(now);
  // Update point: a monitor may hot-swap the whole workload here. It runs
  // after the instant's commits and actuation (which belong to the closing
  // period of the outgoing specification) and before latching (which
  // belongs to the opening period of the incoming one), so no LET window
  // is ever torn apart and no committed update is lost.
  if (monitor_ != nullptr && boundary) {
    if (const impl::Implementation* next = monitor_->on_update_point(now)) {
      if (next != override_) LRT_RETURN_IF_ERROR(install_swap(now, next));
    }
  }
  latch_inputs(now);
  execute_tasks(now);
  return Status::Ok();
}

Status RuntimeCore::install_swap(Time now, const impl::Implementation* next) {
  if (&next->architecture() != &arch_) {
    return InvalidArgumentError(
        "live update must keep the running architecture");
  }
  const spec::Specification& from = *spec_;
  const spec::Specification& to = next->specification();
  const std::size_t num_hosts = arch_.hosts().size();
  const std::size_t num_comms = to.communicators().size();

  // In-flight timed jobs whose deadline crosses the boundary can only
  // exist when the outgoing mapping was unschedulable; they are dropped
  // (counted as misses) rather than remapped into the new task space.
  if (options_.model_execution_time) {
    for (auto& queue : run_queues_) {
      for (const ActiveJob& job : queue) {
        if (!job.silent) ++result_.deadline_misses;
      }
      queue.clear();
    }
    wcet_.assign(to.tasks().size() * num_hosts, 1);
    wctt_.assign(to.tasks().size() * num_hosts, 1);
    for (TaskId t = 0; t < static_cast<TaskId>(to.tasks().size()); ++t) {
      for (HostId h = 0; h < static_cast<HostId>(num_hosts); ++h) {
        const std::size_t index =
            static_cast<std::size_t>(t) * num_hosts +
            static_cast<std::size_t>(h);
        LRT_ASSIGN_OR_RETURN(wcet_[index], arch_.wcet(to.task(t).name, h));
        LRT_ASSIGN_OR_RETURN(wctt_[index], arch_.wctt(to.task(t).name, h));
      }
    }
  }

  // Communicator state survives by name: replications keep their committed
  // value, accumulators keep their statistics (dropped ones are stashed so
  // a rollback resumes them). A spliced communicator starts at its init
  // value; its first access instant is one period after the swap.
  std::vector<std::vector<Value>> values(num_hosts);
  std::vector<ReliabilityAccumulator> accumulators(num_comms);
  std::vector<ReliabilityAccumulator> update_accums(num_comms);
  for (auto& host_values : values) host_values.reserve(num_comms);
  for (CommId c = 0; c < static_cast<CommId>(num_comms); ++c) {
    const auto cs = static_cast<std::size_t>(c);
    const spec::Communicator& comm = to.communicator(c);
    if (const auto old_id = from.find_communicator(comm.name)) {
      const auto os = static_cast<std::size_t>(*old_id);
      for (std::size_t h = 0; h < num_hosts; ++h) {
        values[h].push_back(values_[h][os]);
      }
      accumulators[cs] = accumulators_[os];
      update_accums[cs] = update_accums_[os];
    } else {
      for (std::size_t h = 0; h < num_hosts; ++h) {
        values[h].push_back(comm.init);
      }
      if (const auto stashed = retired_accums_.find(comm.name);
          stashed != retired_accums_.end()) {
        accumulators[cs] = stashed->second.first;
        update_accums[cs] = stashed->second.second;
        retired_accums_.erase(stashed);
      }
    }
  }
  for (CommId c = 0; c < static_cast<CommId>(from.communicators().size());
       ++c) {
    const std::string& name = from.communicator(c).name;
    if (!to.find_communicator(name).has_value()) {
      retired_accums_.insert_or_assign(
          name, std::make_pair(accumulators_[static_cast<std::size_t>(c)],
                               update_accums_[static_cast<std::size_t>(c)]));
    }
  }
  values_ = std::move(values);
  accumulators_ = std::move(accumulators);
  update_accums_ = std::move(update_accums);

  // Latches reset to bottom: every LET window is closed at a boundary, so
  // each input re-latches before its reader's next release.
  latched_.assign(num_hosts, {});
  for (auto& host_latches : latched_) {
    for (const auto& task : to.tasks()) {
      host_latches.emplace_back(task.inputs.size(), Value::bottom());
    }
  }
  // Every outgoing write committed at or before this boundary (write
  // instants never exceed pi_S), and commit_updates already consumed the
  // boundary batch; clearing is a pure invariant re-assertion.
  pending_.clear();

  write_instants_.assign(num_comms, {});
  for (TaskId t = 0; t < static_cast<TaskId>(to.tasks().size()); ++t) {
    for (const spec::PortRef& port : to.task(t).outputs) {
      write_instants_[static_cast<std::size_t>(port.comm)].push_back(
          to.communicator(port.comm).period * port.instance);
    }
  }

  record_values_.assign(num_comms, false);
  for (const std::string& name : options_.record_values_for) {
    if (const auto comm = to.find_communicator(name)) {
      record_values_[static_cast<std::size_t>(*comm)] = true;
    }
  }
  is_actuator_.assign(num_comms, false);
  if (options_.actuator_comms.empty()) {
    for (CommId c = 0; c < static_cast<CommId>(num_comms); ++c) {
      is_actuator_[static_cast<std::size_t>(c)] =
          to.is_output_communicator(c) && !to.is_input_communicator(c);
    }
  } else {
    for (const std::string& name : options_.actuator_comms) {
      if (const auto comm = to.find_communicator(name)) {
        is_actuator_[static_cast<std::size_t>(*comm)] = true;
      }
    }
  }

  spec_ = &to;
  override_ = next;
  epoch_ = now;
  hyperperiod_ = to.hyperperiod();
  step_ = to.base_period();
  ++generation_;
  ++result_.spec_swaps;
  if (tracer_ != nullptr) {
    tracer_->instant("sim", "spec_swap", {{"t", static_cast<double>(now)}});
  }
  return Status::Ok();
}

void RuntimeCore::advance_environment(Time from, Time to) {
  if (to <= from) return;
  if (env_.advance_granularity() ==
      Environment::AdvanceGranularity::kCoalesce) {
    env_.advance(from, to - from);
    return;
  }
  for (Time now = from; now < to; now += step_) {
    env_.advance(now, step_);
  }
}

SimulationResult RuntimeCore::finish() {
  const std::size_t num_comms = spec_->communicators().size();
  if (tracer_ != nullptr && options_.periods > 0) {
    tracer_->complete(
        "sim", "period", period_start_us_, tracer_->now_us(),
        {{"period", static_cast<double>(options_.periods - 1)}});
  }
  // Counters are flushed once per run, so the hot loop never pays for
  // metrics and the totals are identical for any tracing state — and,
  // being derived from the result alone, for either engine.
  if (sink_ != nullptr) {
    sink_->counter_add("sim.runs");
    sink_->counter_add("sim.periods", options_.periods);
    sink_->counter_add("sim.invocations", result_.invocations);
    sink_->counter_add("sim.invocation_failures",
                       result_.invocation_failures);
    sink_->counter_add("sim.updates", result_.committed_updates);
    sink_->counter_add("sim.updates_bottom", bottom_updates_);
    sink_->counter_add("sim.vote_divergences", result_.vote_divergences);
    sink_->counter_add("sim.deadline_misses", result_.deadline_misses);
    sink_->counter_add("sim.remaps_installed", result_.remaps_installed);
    sink_->counter_add("sim.spec_swaps", result_.spec_swaps);
  }

  result_.periods = options_.periods;
  result_.ticks = duration();
  result_.comm_stats.resize(num_comms);
  for (std::size_t c = 0; c < num_comms; ++c) {
    CommStats& stats = result_.comm_stats[c];
    stats.name = spec_->communicators()[c].name;
    stats.samples = accumulators_[c].samples();
    stats.reliable_samples = accumulators_[c].reliable();
    stats.limit_average = accumulators_[c].average();
    stats.updates = update_accums_[c].samples();
    stats.reliable_updates = update_accums_[c].reliable();
  }
  return std::move(result_);
}

void RuntimeCore::apply_host_events(Time now) {
  while (next_host_event_ < host_events_.size() &&
         host_events_[next_host_event_].time <= now) {
    const auto& event = host_events_[next_host_event_++];
    host_up_[static_cast<std::size_t>(event.host)] = event.up;
  }
}

void RuntimeCore::commit_updates(Time now) {
  // Task-written communicators: vote over the broadcast replica outputs.
  const auto pending_it = pending_.find(now);
  std::vector<PendingWrite> arrived;
  if (pending_it != pending_.end()) {
    arrived = std::move(pending_it->second);
    pending_.erase(pending_it);
  }

  const Time rel_now = now - epoch_;
  for (CommId c = 0; c < static_cast<CommId>(spec_->communicators().size());
       ++c) {
    const spec::Communicator& comm = spec_->communicator(c);
    const bool on_grid = rel_now % comm.period == 0;
    if (!on_grid) continue;

    if (spec_->is_input_communicator(c)) {
      // Sensor update (rule (a)): the environment writes identical values
      // to every replication of the sensor; a fail-silent sensor fault
      // makes the update unreliable.
      if (spec_->readers_of(c).empty()) continue;  // unused: init persists
      const arch::SensorId sensor_id = phase_at(now).sensor_for(c);
      const arch::Sensor& sensor = arch_.sensor(sensor_id);
      const bool failed =
          options_.faults.inject_sensor_faults &&
          keyed_bernoulli(1.0 - sensor.reliability, options_.faults.seed,
                          kSensorDraw, now, c);
      const Value value =
          failed ? Value::bottom() : env_.read_sensor(comm.name, now);
      set_all_replications(c, value);
      ++result_.committed_updates;
      update_accums_[static_cast<std::size_t>(c)].record(!failed);
      if (failed) {
        ++bottom_updates_;
        if (tracer_ != nullptr)
          tracer_->instant("sim", "bottom",
                           {{"comm", static_cast<double>(c)},
                            {"t", static_cast<double>(now)}});
      }
      if (monitor_ != nullptr) {
        monitor_->on_sensor_update(now, c, sensor_id, !failed);
        monitor_->on_update(now, c, !failed, failed ? 0 : 1);
      }
      continue;
    }

    // Written communicator: is one of its write instants due now?
    bool due = false;
    for (const Time instant : write_instants_[static_cast<std::size_t>(c)]) {
      // Instant w commits at epoch-relative times w, w + pi_S, w + 2 pi_S,
      // ... (the epoch is 0 until a live update rebases the grid).
      if (rel_now >= instant && (rel_now - instant) % hyperperiod_ == 0) {
        due = true;
        break;
      }
    }
    if (!due) continue;

    // Voting: every host received the same broadcast set (atomic network),
    // so the vote is computed once. Divergence among non-bottom candidates
    // is counted as a violation of the paper's determinism assumption.
    std::vector<Value> candidates;
    for (const PendingWrite& write : arrived) {
      if (write.comm != c) continue;
      // Fail-silence across the whole LET window: a replication on a host
      // that is down at commit time stays silent.
      if (!host_up_[static_cast<std::size_t>(write.source)]) continue;
      candidates.push_back(write.value);
    }
    const Value winner = vote(candidates, options_.voting_policy,
                              &result_.vote_divergences);
    set_all_replications(c, winner);
    ++result_.committed_updates;
    update_accums_[static_cast<std::size_t>(c)].record(!winner.is_bottom());
    if (winner.is_bottom()) {
      // A vote with no contributor: the paper's unreliable (bottom)
      // outcome — worth a point event even at full trace volume.
      ++bottom_updates_;
      if (tracer_ != nullptr)
        tracer_->instant("sim", "bottom",
                         {{"comm", static_cast<double>(c)},
                          {"t", static_cast<double>(now)},
                          {"contributors", 0.0}});
    }
    if (monitor_ != nullptr) {
      monitor_->on_update(now, c, !winner.is_bottom(),
                          static_cast<int>(candidates.size()));
    }
  }
}

void RuntimeCore::record_and_actuate(Time now) {
  for (CommId c = 0; c < static_cast<CommId>(spec_->communicators().size());
       ++c) {
    const spec::Communicator& comm = spec_->communicator(c);
    if ((now - epoch_) % comm.period != 0) continue;
    const Value& value = committed(c);
    // The paper's Z_j(c): sampled at every access instant of c.
    accumulators_[static_cast<std::size_t>(c)].record(!value.is_bottom());
    if (record_values_[static_cast<std::size_t>(c)]) {
      result_.value_traces[comm.name].push_back(value);
    }
    if (is_actuator_[static_cast<std::size_t>(c)]) {
      env_.write_actuator(comm.name, now, value);
    }
    // Verify all replications agree (reliable atomic broadcast invariant).
    // Row 0 is checked too: a NaN value disagrees with itself on every host.
    for (const auto& host_values : values_) {
      if (!(host_values[static_cast<std::size_t>(c)] == value)) {
        ++result_.vote_divergences;
      }
    }
  }
}

void RuntimeCore::latch_inputs(Time now) {
  const Time rel = (now - epoch_) % hyperperiod_;
  for (TaskId t = 0; t < static_cast<TaskId>(spec_->tasks().size()); ++t) {
    const spec::Task& task = spec_->task(t);
    for (std::size_t j = 0; j < task.inputs.size(); ++j) {
      const spec::PortRef& port = task.inputs[j];
      const Time instant =
          spec_->communicator(port.comm).period * port.instance;
      if (instant != rel) continue;
      for (const HostId h : phase_at(now).hosts_for(t)) {
        latched_[static_cast<std::size_t>(h)][static_cast<std::size_t>(t)]
                [j] = values_[static_cast<std::size_t>(h)]
                             [static_cast<std::size_t>(port.comm)];
      }
    }
  }
}

void RuntimeCore::execute_tasks(Time now) {
  const Time rel = (now - epoch_) % hyperperiod_;
  for (TaskId t = 0; t < static_cast<TaskId>(spec_->tasks().size()); ++t) {
    if (spec_->read_time(t) != rel) continue;
    const spec::Task& task = spec_->task(t);

    for (const HostId h : phase_at(now).hosts_for(t)) {
      ++result_.invocations;
      const auto hs = static_cast<std::size_t>(h);

      // A downed host never starts the invocation.
      if (!host_up_[hs]) {
        ++result_.invocation_failures;
        if (monitor_ != nullptr) monitor_->on_invocation(now, t, h, false);
        continue;
      }

      // Input failure model (paper Section 2). A model-violating input
      // set means the invocation never starts (no processor time).
      std::vector<Value> inputs = latched_[hs][static_cast<std::size_t>(t)];
      {
        std::size_t unreliable = 0;
        for (std::size_t j = 0; j < inputs.size(); ++j) {
          if (!inputs[j].is_bottom()) continue;
          ++unreliable;
          if (task.model != spec::FailureModel::kSeries) {
            inputs[j] = task.defaults[j];
          }
        }
        const bool inputs_bad =
            (task.model == spec::FailureModel::kSeries && unreliable > 0) ||
            (task.model == spec::FailureModel::kParallel &&
             unreliable == inputs.size());
        if (inputs_bad) {
          // Not reported to the monitor: an input-model violation says
          // nothing about this host's health (the failure is upstream),
          // and counting it would let one dead sensor condemn every host.
          ++result_.invocation_failures;
          continue;
        }
      }

      // Transient faults are independent per attempt; re-executions retry
      // on the same host within the LET.
      const int max_attempts = phase_at(now).reexecutions(t) + 1;
      int attempts_used = 1;
      bool failed = false;
      if (options_.faults.inject_invocation_faults) {
        failed = true;
        for (attempts_used = 0; failed && attempts_used < max_attempts;) {
          ++attempts_used;
          failed = keyed_bernoulli(1.0 - arch_.host(h).reliability,
                                   options_.faults.seed, kInvocationDraw, now,
                                   t, h, attempts_used);
        }
      }

      // Compute. A missing function yields type-correct zero outputs so
      // analysis-only specifications remain simulable.
      std::vector<Value> outputs;
      if (!failed) {
        if (task.function) {
          outputs = task.function(inputs);
          assert(outputs.size() == task.outputs.size() &&
                 "task function produced wrong arity");
        } else {
          outputs.reserve(task.outputs.size());
          for (const spec::PortRef& port : task.outputs) {
            outputs.push_back(zero_value(spec_->communicator(port.comm).type));
          }
        }
        // Atomic broadcast: an unreliable network drops the whole
        // broadcast for every host.
        if (options_.broadcast_reliability < 1.0 &&
            keyed_bernoulli(1.0 - options_.broadcast_reliability,
                            options_.faults.seed, kBroadcastDraw, now, t, h)) {
          failed = true;
        }
      }
      if (failed) ++result_.invocation_failures;
      if (monitor_ != nullptr) monitor_->on_invocation(now, t, h, !failed);

      const Time period_start = now - rel;
      if (options_.model_execution_time) {
        // Enqueue on the host's EDF processor; failed attempts still burn
        // processor time (all attempts were executed before giving up).
        ActiveJob job;
        job.task = t;
        job.period_start = period_start;
        const std::size_t index =
            static_cast<std::size_t>(t) * arch_.hosts().size() + hs;
        // One full execution plus, per retry actually taken, one recovery
        // segment (full WCET without checkpoints) and checkpoint saves.
        const impl::Implementation& phase = phase_at(now);
        const Time base = wcet_[index];
        const int k = phase.checkpoints(t);
        const Time overhead = phase.checkpoint_overhead(t);
        const Time segment = (base + k) / (k + 1);
        job.remaining = base + k * overhead +
                        (attempts_used - 1) *
                            (segment + (k > 0 ? overhead : 0));
        job.deadline = period_start + spec_->write_time(t) - wctt_[index];
        job.silent = failed;
        job.outputs = std::move(outputs);
        run_queues_[hs].push_back(std::move(job));
      } else if (!failed) {
        deliver_outputs(t, h, period_start, /*available_at=*/now, outputs);
      }
    }
  }
}

void RuntimeCore::deliver_outputs(TaskId task_id, HostId host,
                                  Time period_start, Time available_at,
                                  const std::vector<Value>& outputs) {
  const spec::Task& task = spec_->task(task_id);
  for (std::size_t k = 0; k < task.outputs.size(); ++k) {
    const spec::PortRef& port = task.outputs[k];
    const Time commit =
        period_start + spec_->communicator(port.comm).period * port.instance;
    if (available_at > commit) {
      // Late: the write instant passed before the broadcast arrived.
      ++result_.deadline_misses;
      continue;
    }
    pending_[commit].push_back({port.comm, host, outputs[k]});
  }
}

void RuntimeCore::advance_processors(Time from, Time to) {
  if (!options_.model_execution_time) return;
  for (HostId h = 0; h < static_cast<HostId>(arch_.hosts().size()); ++h) {
    const auto hs = static_cast<std::size_t>(h);
    if (!host_up_[hs]) continue;  // a downed host freezes (fail-silent)
    auto& queue = run_queues_[hs];
    Time clock = from;
    while (clock < to && !queue.empty()) {
      // Earliest-deadline job first (queues are short; linear scan).
      std::size_t best = 0;
      for (std::size_t j = 1; j < queue.size(); ++j) {
        if (queue[j].deadline < queue[best].deadline) best = j;
      }
      ActiveJob& job = queue[best];
      const Time slice = std::min(job.remaining, to - clock);
      job.remaining -= slice;
      clock += slice;
      if (job.remaining > 0) break;  // window exhausted mid-job
      // Completion at `clock`; broadcast arrives WCTT later.
      if (!job.silent) {
        const std::size_t index =
            static_cast<std::size_t>(job.task) * arch_.hosts().size() + hs;
        deliver_outputs(job.task, h, job.period_start, clock + wctt_[index],
                        job.outputs);
      }
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
}

}  // namespace lrt::sim::detail
