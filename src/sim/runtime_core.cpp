#include "sim/runtime_core.h"

#include <algorithm>
#include <cassert>

#include "support/math_util.h"
#include "support/rng.h"

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

/// Buckets (row, item) pairs, gathered in communicator/task order, into
/// `out` so that each row's range keeps that order.
template <typename T>
void bucket_by_row(std::vector<std::pair<std::uint32_t, T>>& pairs,
                   std::vector<ActivationRow>& rows,
                   ActivationRow::Range ActivationRow::*range,
                   std::vector<T>& out) {
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  out.reserve(pairs.size());
  std::size_t next = 0;
  for (std::uint32_t r = 0; r < rows.size(); ++r) {
    (rows[r].*range).begin = static_cast<std::uint32_t>(out.size());
    while (next < pairs.size() && pairs[next].first == r) {
      out.push_back(std::move(pairs[next++].second));
    }
    (rows[r].*range).end = static_cast<std::uint32_t>(out.size());
  }
}

}  // namespace

ActivationTable ActivationTable::compile(const spec::Specification& spec,
                                         const std::vector<bool>& is_actuator) {
  ActivationTable table;
  table.period = spec.hyperperiod();
  const Time period = table.period;
  const auto num_comms = static_cast<CommId>(spec.communicators().size());
  const auto num_tasks = static_cast<TaskId>(spec.tasks().size());

  // Active offsets: every multiple of every communicator period.
  std::vector<Time> offsets;
  for (CommId c = 0; c < num_comms; ++c) {
    for (Time t = 0; t < period; t += spec.communicator(c).period) {
      offsets.push_back(t);
    }
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  table.rows.resize(offsets.size());
  for (std::size_t r = 0; r < offsets.size(); ++r) {
    table.rows[r].offset = offsets[r];
  }
  const auto row_of = [&offsets](Time offset) {
    return static_cast<std::uint32_t>(
        std::lower_bound(offsets.begin(), offsets.end(), offset) -
        offsets.begin());
  };

  std::vector<std::pair<std::uint32_t, CommId>> sensors;
  std::vector<std::pair<std::uint32_t, VoteEntry>> votes;
  std::vector<std::pair<std::uint32_t, CommId>> accesses;
  std::vector<std::pair<std::uint32_t, CommId>> actuations;
  for (CommId c = 0; c < num_comms; ++c) {
    const Time comm_period = spec.communicator(c).period;
    const bool sensed =
        spec.is_input_communicator(c) && !spec.readers_of(c).empty();
    for (Time t = 0; t < period; t += comm_period) {
      const std::uint32_t row = row_of(t);
      if (sensed) sensors.emplace_back(row, c);
      accesses.emplace_back(row, c);
      if (is_actuator[static_cast<std::size_t>(c)]) {
        actuations.emplace_back(row, c);
      }
    }
    if (const auto writer = spec.writer_of(c)) {
      for (const spec::PortRef& port : spec.task(*writer).outputs) {
        if (port.comm != c) continue;
        const Time instant = comm_period * port.instance;
        votes.emplace_back(row_of(instant % period), VoteEntry{c, instant});
      }
    }
  }

  std::vector<std::pair<std::uint32_t, LatchEntry>> latches;
  std::vector<std::pair<std::uint32_t, TaskId>> releases;
  for (TaskId t = 0; t < num_tasks; ++t) {
    const spec::Task& task = spec.task(t);
    for (std::size_t j = 0; j < task.inputs.size(); ++j) {
      const spec::PortRef& port = task.inputs[j];
      const Time instant = spec.communicator(port.comm).period * port.instance;
      if (instant >= period) continue;  // never latched within a period
      latches.emplace_back(row_of(instant),
                           LatchEntry{t, static_cast<int>(j), port.comm});
    }
    releases.emplace_back(row_of(spec.read_time(t)), t);
    table.commit_begin.push_back(
        static_cast<std::uint32_t>(table.commits.size()));
    for (const spec::PortRef& port : task.outputs) {
      const Time instant = spec.communicator(port.comm).period * port.instance;
      table.commits.push_back({row_of(instant % period), instant, port.comm});
    }
  }

  bucket_by_row(sensors, table.rows, &ActivationRow::sensors, table.sensors);
  bucket_by_row(votes, table.rows, &ActivationRow::votes, table.votes);
  bucket_by_row(accesses, table.rows, &ActivationRow::accesses,
                table.accesses);
  bucket_by_row(actuations, table.rows, &ActivationRow::actuations,
                table.actuations);
  bucket_by_row(latches, table.rows, &ActivationRow::latches, table.latches);
  bucket_by_row(releases, table.rows, &ActivationRow::releases,
                table.releases);
  return table;
}

RuntimeCore::RuntimeCore(std::span<const impl::Implementation> phases,
                         Environment& env, const SimulationOptions& options,
                         UpdateHook* hook)
    : phases_(phases),
      spec_(&phases.front().specification()),
      arch_(phases.front().architecture()),
      env_(env),
      options_(options),
      monitor_(options.monitor),
      hook_(hook),
      sink_(obs::resolve_sink(options.sink)),
      tracer_(sink_ != nullptr ? sink_->tracer() : nullptr),
      phase_(&phases.front()) {}

Status RuntimeCore::init() {
  if (options_.periods <= 0) {
    return InvalidArgumentError("simulation needs a positive period count");
  }
  if (!is_probability(options_.broadcast_reliability) ||
      options_.broadcast_reliability <= 0.0) {
    return InvalidArgumentError("broadcast reliability must be in (0, 1]");
  }
  num_comms_ = spec_->communicators().size();
  const std::size_t num_hosts = arch_.hosts().size();
  hyperperiod_ = spec_->hyperperiod();
  // The harmonic grid, derived once at Build time (gcd of the periods).
  step_ = spec_->base_period();
  // The horizon never moves again: a hot-swap may change the grid and the
  // period, but the run still ends where the initial workload said.
  duration_ = hyperperiod_ * options_.periods;
  coalesce_ = env_.advance_granularity() ==
              Environment::AdvanceGranularity::kCoalesce;

  // Initial replications: instance 0 carries the init value everywhere.
  values_.clear();
  values_.reserve(num_hosts * num_comms_);
  for (std::size_t h = 0; h < num_hosts; ++h) {
    for (const auto& comm : spec_->communicators()) {
      values_.push_back(comm.init);
    }
  }
  host_up_.assign(num_hosts, true);

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

  accumulators_.assign(num_comms_, {});
  update_accums_.assign(num_comms_, {});
  // With a monitor installed an unknown name may belong to a specification
  // a live update splices in later; its trace then starts at the swap.
  for (const std::string& name : options_.record_values_for) {
    if (monitor_ == nullptr && !spec_->find_communicator(name)) {
      return NotFoundError("record_values_for references unknown "
                           "communicator '" + name + "'");
    }
    result_.value_traces.emplace(name, std::vector<Value>{});
  }
  for (const std::string& name : options_.actuator_comms) {
    if (monitor_ == nullptr && !spec_->find_communicator(name)) {
      return NotFoundError("actuator_comms references unknown "
                           "communicator '" + name + "'");
    }
  }

  if (options_.model_execution_time) {
    run_queues_.assign(num_hosts, {});
    LRT_RETURN_IF_ERROR(load_timing());
  }
  compile_tables();
  seek_row(0, 0);

  if (tracer_ != nullptr) period_start_us_ = tracer_->now_us();
  return Status::Ok();
}

Status RuntimeCore::load_timing() {
  const std::size_t num_hosts = arch_.hosts().size();
  const std::size_t num_tasks = spec_->tasks().size();
  wcet_.assign(num_tasks * num_hosts, 1);
  wctt_.assign(num_tasks * num_hosts, 1);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    const std::string& name = spec_->tasks()[t].name;
    for (HostId h = 0; h < static_cast<HostId>(num_hosts); ++h) {
      const std::size_t index = t * num_hosts + static_cast<std::size_t>(h);
      LRT_ASSIGN_OR_RETURN(wcet_[index], arch_.wcet(name, h));
      LRT_ASSIGN_OR_RETURN(wctt_[index], arch_.wctt(name, h));
    }
  }
  return Status::Ok();
}

void RuntimeCore::compile_tables() {
  // Actuators: the named communicators (names the running specification
  // lacks may arrive with a later hot-swap), else every communicator
  // written by a task and read by none.
  is_actuator_.assign(num_comms_, false);
  if (options_.actuator_comms.empty()) {
    for (CommId c = 0; c < static_cast<CommId>(num_comms_); ++c) {
      is_actuator_[static_cast<std::size_t>(c)] =
          spec_->is_output_communicator(c) && !spec_->is_input_communicator(c);
    }
  } else {
    for (const std::string& name : options_.actuator_comms) {
      if (const auto comm = spec_->find_communicator(name)) {
        is_actuator_[static_cast<std::size_t>(*comm)] = true;
      }
    }
  }
  traces_.assign(num_comms_, nullptr);
  for (const std::string& name : options_.record_values_for) {
    if (const auto comm = spec_->find_communicator(name)) {
      traces_[static_cast<std::size_t>(*comm)] =
          &result_.value_traces.find(name)->second;
    }
  }

  table_ = ActivationTable::compile(*spec_, is_actuator_);

  // Latches start at bottom: every LET window is closed at a boundary, so
  // each input latches before its reader's next release.
  latch_base_.clear();
  latch_width_ = 0;
  for (const spec::Task& task : spec_->tasks()) {
    latch_base_.push_back(latch_width_);
    latch_width_ += task.inputs.size();
  }
  latched_.assign(arch_.hosts().size() * latch_width_, Value::bottom());

  // Every outgoing write committed at or before a swap boundary (write
  // instants never exceed pi_S), and commit_updates already consumed the
  // boundary batch; clearing is a pure invariant re-assertion.
  for (auto& bucket : pending_) bucket.clear();
  pending_.resize(table_.rows.size());
  // Size every bucket and scratch vector for its worst case (each output
  // replicated on every host), so the steady state never reallocates.
  const std::size_t num_hosts = arch_.hosts().size();
  std::vector<std::size_t> worst(table_.rows.size(), 0);
  for (const ActivationTable::Commit& commit : table_.commits) {
    worst[commit.row] += num_hosts;
  }
  for (std::size_t r = 0; r < worst.size(); ++r) pending_[r].reserve(worst[r]);
  candidates_.reserve(num_hosts);
  std::size_t max_outputs = 0;
  for (const spec::Task& task : spec_->tasks()) {
    inputs_.reserve(task.inputs.size());
    max_outputs = std::max(max_outputs, task.outputs.size());
  }
  outputs_.reserve(max_outputs);
}

void RuntimeCore::seek_row(std::size_t row, Time period_start) {
  cursor_ = row;
  cursor_period_ = period_start;
  next_row_at_ = period_start + table_.rows[row].offset;
}

Status RuntimeCore::tick_active(Time now) {
  apply_host_events(now);
  assert(now <= next_row_at_ && "an engine skipped an activation row");
  if (now != next_row_at_) return Status::Ok();  // a host event, no row
  const std::size_t row = cursor_;
  if (row + 1 < table_.rows.size()) {
    seek_row(row + 1, cursor_period_);
  } else {
    seek_row(0, cursor_period_ + hyperperiod_);
  }
  const bool boundary = table_.rows[row].offset == 0;
  if (boundary) {
    // One span per specification period: the dispatch granularity the
    // paper reasons about, and coarse enough to stay cheap when enabled.
    // Period indices restart at a hot-swap epoch (the incoming
    // specification's own period count).
    if (tracer_ != nullptr && now > epoch_) {
      const std::int64_t end_us = tracer_->now_us();
      tracer_->complete(
          "sim", "period", period_start_us_, end_us,
          {{"period",
            static_cast<double>((now - epoch_) / hyperperiod_ - 1)}});
      period_start_us_ = end_us;
    }
    if (override_ == nullptr && phases_.size() > 1) {
      phase_ = &phases_[static_cast<std::size_t>(
          ((now - epoch_) / hyperperiod_) %
          static_cast<Time>(phases_.size()))];
    }
    // Remap point: mode switches happen at period boundaries only, so a
    // repair never tears a LET window apart.
    if (monitor_ != nullptr) {
      if (const impl::Implementation* next =
              monitor_->on_period_boundary(now)) {
        if (&next->specification() != spec_ ||
            &next->architecture() != &arch_) {
          return InvalidArgumentError(
              "monitor remap must target the running specification and "
              "architecture");
        }
        if (next != override_) {
          override_ = next;
          phase_ = next;
          ++result_.remaps_installed;
          if (tracer_ != nullptr)
            tracer_->instant("sim", "remap",
                             {{"t", static_cast<double>(now)}});
        }
      }
    }
  }
  commit_updates(now, row);
  record_and_actuate(now, table_.rows[row]);
  // Update point: a monitor or a front end's hook may hot-swap the whole
  // workload here. It runs after the instant's commits and actuation
  // (which belong to the closing period of the outgoing specification)
  // and before latching (which belongs to the opening period of the
  // incoming one), so no LET window is ever torn apart and no committed
  // update is lost.
  std::size_t opening = row;
  if (boundary && (monitor_ != nullptr || hook_ != nullptr)) {
    const impl::Implementation* next =
        monitor_ != nullptr ? monitor_->on_update_point(now) : nullptr;
    if (next == nullptr && hook_ != nullptr) {
      LRT_ASSIGN_OR_RETURN(next, hook_->at_update_point(now, *this));
    }
    if (next != nullptr && next != override_) {
      LRT_RETURN_IF_ERROR(install_swap(now, next));
      opening = 0;
    }
  }
  latch_inputs(table_.rows[opening]);
  execute_tasks(now, table_.rows[opening]);
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
  }

  // Communicator state survives by name: replications keep their committed
  // value, accumulators keep their statistics (dropped ones are stashed so
  // a rollback resumes them). A spliced communicator starts at its init
  // value; its first access instant is one period after the swap.
  std::vector<Value> values(num_hosts * num_comms);
  std::vector<ReliabilityAccumulator> accumulators(num_comms);
  std::vector<ReliabilityAccumulator> update_accums(num_comms);
  for (CommId c = 0; c < static_cast<CommId>(num_comms); ++c) {
    const auto cs = static_cast<std::size_t>(c);
    const spec::Communicator& comm = to.communicator(c);
    if (const auto old_id = from.find_communicator(comm.name)) {
      const auto os = static_cast<std::size_t>(*old_id);
      for (std::size_t h = 0; h < num_hosts; ++h) {
        values[h * num_comms + cs] = values_[h * num_comms_ + os];
      }
      accumulators[cs] = accumulators_[os];
      update_accums[cs] = update_accums_[os];
    } else {
      for (std::size_t h = 0; h < num_hosts; ++h) {
        values[h * num_comms + cs] = comm.init;
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

  spec_ = &to;
  num_comms_ = num_comms;
  override_ = next;
  phase_ = next;
  epoch_ = now;
  hyperperiod_ = to.hyperperiod();
  step_ = to.base_period();
  if (options_.model_execution_time) LRT_RETURN_IF_ERROR(load_timing());
  compile_tables();
  // The swap instant runs the incoming row 0; the cursor moves past it.
  if (table_.rows.size() > 1) {
    seek_row(1, now);
  } else {
    seek_row(0, now + hyperperiod_);
  }
  ++result_.spec_swaps;
  if (tracer_ != nullptr) {
    tracer_->instant("sim", "spec_swap", {{"t", static_cast<double>(now)}});
  }
  return Status::Ok();
}

void RuntimeCore::advance_environment(Time from, Time to) {
  if (to <= from) return;
  if (coalesce_) {
    env_.advance(from, to - from);
    return;
  }
  for (Time now = from; now < to; now += step_) {
    env_.advance(now, step_);
  }
}

SimulationResult RuntimeCore::finish() {
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
  result_.comm_stats.resize(num_comms_);
  for (std::size_t c = 0; c < num_comms_; ++c) {
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
  while (host_event_due(now)) {
    const auto& event = host_events_[next_host_event_++];
    host_up_[static_cast<std::size_t>(event.host)] = event.up;
  }
}

void RuntimeCore::commit_updates(Time now, std::size_t row_index) {
  const ActivationRow& row = table_.rows[row_index];
  // Sensor updates (rule (a)): the environment writes identical values to
  // every replication of the sensor; a fail-silent sensor fault makes the
  // update unreliable.
  for (const CommId c : table_.slice(table_.sensors, row.sensors)) {
    const arch::SensorId sensor_id = phase_->sensor_for(c);
    const arch::Sensor& sensor = arch_.sensor(sensor_id);
    const bool failed =
        options_.faults.inject_sensor_faults &&
        keyed_bernoulli(1.0 - sensor.reliability, options_.faults.seed,
                        kSensorDraw, now, c);
    const Value value =
        failed ? Value::bottom()
               : env_.read_sensor(spec_->communicator(c).name, now);
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
  }
  if (row.votes.begin == row.votes.end) return;

  // Voting: every host received the same broadcast set (atomic network),
  // so the vote is computed once. Divergence among non-bottom candidates
  // is counted as a violation of the paper's determinism assumption.
  std::vector<PendingWrite>& arrived = pending_[row_index];
  const Time rel_now = now - epoch_;
  for (const VoteEntry& due : table_.slice(table_.votes, row.votes)) {
    if (rel_now < due.first_due) continue;  // nothing released yet
    candidates_.clear();
    for (const PendingWrite& write : arrived) {
      if (write.comm != due.comm || write.commit != now) continue;
      // Fail-silence across the whole LET window: a replication on a host
      // that is down at commit time stays silent.
      if (!host_up_[static_cast<std::size_t>(write.source)]) continue;
      candidates_.push_back(write.value);
    }
    const Value winner = vote(candidates_, options_.voting_policy,
                              &result_.vote_divergences);
    set_all_replications(due.comm, winner);
    ++result_.committed_updates;
    update_accums_[static_cast<std::size_t>(due.comm)].record(
        !winner.is_bottom());
    if (winner.is_bottom()) {
      // A vote with no contributor: the paper's unreliable (bottom)
      // outcome — worth a point event even at full trace volume.
      ++bottom_updates_;
      if (tracer_ != nullptr)
        tracer_->instant("sim", "bottom",
                         {{"comm", static_cast<double>(due.comm)},
                          {"t", static_cast<double>(now)},
                          {"contributors", 0.0}});
    }
    if (monitor_ != nullptr) {
      monitor_->on_update(now, due.comm, !winner.is_bottom(),
                          static_cast<int>(candidates_.size()));
    }
  }
  std::erase_if(arrived,
                [now](const PendingWrite& w) { return w.commit <= now; });
}

void RuntimeCore::record_and_actuate(Time now, const ActivationRow& row) {
  for (const CommId c : table_.slice(table_.accesses, row.accesses)) {
    const auto cs = static_cast<std::size_t>(c);
    const Value& value = committed(c);
    // The paper's Z_j(c): sampled at every access instant of c.
    accumulators_[cs].record(!value.is_bottom());
    if (traces_[cs] != nullptr) traces_[cs]->push_back(value);
    // Verify all replications agree (reliable atomic broadcast invariant).
    // Host 0 is checked too: a NaN value disagrees with itself everywhere.
    for (std::size_t i = cs; i < values_.size(); i += num_comms_) {
      if (!(values_[i] == value)) ++result_.vote_divergences;
    }
  }
  for (const CommId c : table_.slice(table_.actuations, row.actuations)) {
    env_.write_actuator(spec_->communicator(c).name, now, committed(c));
  }
}

void RuntimeCore::latch_inputs(const ActivationRow& row) {
  for (const LatchEntry& latch : table_.slice(table_.latches, row.latches)) {
    const std::size_t slot =
        latch_base_[static_cast<std::size_t>(latch.task)] +
        static_cast<std::size_t>(latch.input);
    for (const HostId h : phase_->hosts_for(latch.task)) {
      const auto hs = static_cast<std::size_t>(h);
      latched_[hs * latch_width_ + slot] =
          values_[hs * num_comms_ + static_cast<std::size_t>(latch.comm)];
    }
  }
}

void RuntimeCore::execute_tasks(Time now, const ActivationRow& row) {
  const Time period_start = now - row.offset;
  for (const TaskId t : table_.slice(table_.releases, row.releases)) {
    const spec::Task& task = spec_->task(t);

    for (const HostId h : phase_->hosts_for(t)) {
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
      const auto latched = latched_.begin() +
                           static_cast<std::ptrdiff_t>(
                               hs * latch_width_ +
                               latch_base_[static_cast<std::size_t>(t)]);
      inputs_.assign(latched,
                     latched + static_cast<std::ptrdiff_t>(task.inputs.size()));
      std::size_t unreliable = 0;
      for (std::size_t j = 0; j < inputs_.size(); ++j) {
        if (!inputs_[j].is_bottom()) continue;
        ++unreliable;
        if (task.model != spec::FailureModel::kSeries) {
          inputs_[j] = task.defaults[j];
        }
      }
      const bool inputs_bad =
          (task.model == spec::FailureModel::kSeries && unreliable > 0) ||
          (task.model == spec::FailureModel::kParallel &&
           unreliable == inputs_.size());
      if (inputs_bad) {
        // Not reported to the monitor: an input-model violation says
        // nothing about this host's health (the failure is upstream),
        // and counting it would let one dead sensor condemn every host.
        ++result_.invocation_failures;
        continue;
      }

      // Transient faults are independent per attempt; re-executions retry
      // on the same host within the LET.
      const int max_attempts = phase_->reexecutions(t) + 1;
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
      if (!failed) {
        if (task.function) {
          outputs_ = task.function(inputs_);
          assert(outputs_.size() == task.outputs.size() &&
                 "task function produced wrong arity");
        } else {
          outputs_.clear();
          for (const spec::PortRef& port : task.outputs) {
            outputs_.push_back(
                zero_value(spec_->communicator(port.comm).type));
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
        const Time base = wcet_[index];
        const int k = phase_->checkpoints(t);
        const Time overhead = phase_->checkpoint_overhead(t);
        const Time segment = (base + k) / (k + 1);
        job.remaining = base + k * overhead +
                        (attempts_used - 1) *
                            (segment + (k > 0 ? overhead : 0));
        job.deadline = period_start + spec_->write_time(t) - wctt_[index];
        job.silent = failed;
        if (!failed) job.outputs = outputs_;
        run_queues_[hs].push_back(std::move(job));
      } else if (!failed) {
        deliver_outputs(t, h, period_start, /*available_at=*/now, outputs_);
      }
    }
  }
}

void RuntimeCore::deliver_outputs(TaskId task, HostId host,
                                  Time period_start, Time available_at,
                                  std::span<const Value> outputs) {
  const std::uint32_t first =
      table_.commit_begin[static_cast<std::size_t>(task)];
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const ActivationTable::Commit& commit = table_.commits[first + k];
    const Time at = period_start + commit.offset;
    if (available_at > at) {
      // Late: the write instant passed before the broadcast arrived.
      ++result_.deadline_misses;
      continue;
    }
    pending_[commit.row].push_back({commit.comm, host, at, outputs[k]});
  }
}

void RuntimeCore::run_processors(Time from, Time to) {
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
