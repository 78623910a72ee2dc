#include "reliability/incremental.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "spec/spec_graph.h"
#include "support/math_util.h"

namespace lrt::reliability {

namespace {

using arch::HostId;
using arch::SensorId;
using spec::CommId;
using spec::TaskId;

}  // namespace

Result<SrgEvaluator> SrgEvaluator::Create(
    const spec::Specification& spec, const arch::Architecture& arch,
    std::vector<SensorId> sensor_by_comm, std::vector<int> reexecutions) {
  const auto num_comms = spec.communicators().size();
  const auto num_tasks = spec.tasks().size();
  const spec::SpecificationGraph graph(spec);
  LRT_ASSIGN_OR_RETURN(std::vector<CommId> order, graph.reliability_order());

  if (sensor_by_comm.size() != num_comms) {
    return InvalidArgumentError(
        "SrgEvaluator needs one sensor slot per communicator (got " +
        std::to_string(sensor_by_comm.size()) + ", want " +
        std::to_string(num_comms) + ")");
  }
  if (!reexecutions.empty() && reexecutions.size() != num_tasks) {
    return InvalidArgumentError(
        "SrgEvaluator re-execution counts must be empty or one per task");
  }
  if (reexecutions.empty()) reexecutions.assign(num_tasks, 0);

  SrgEvaluator eval;
  eval.spec_ = &spec;
  eval.arch_ = &arch;
  eval.topo_order_ = std::move(order);
  eval.topo_pos_.assign(num_comms, 0);
  for (std::size_t i = 0; i < eval.topo_order_.size(); ++i) {
    eval.topo_pos_[static_cast<std::size_t>(eval.topo_order_[i])] =
        static_cast<int>(i);
  }
  eval.rule_.assign(num_comms, Rule::kConstantOne);
  eval.sensor_rel_.assign(num_comms, 1.0);
  eval.writer_.assign(num_comms, -1);
  eval.lrc_.assign(num_comms, 1.0);
  eval.task_outputs_.assign(num_tasks, {});
  eval.downstream_.assign(num_comms, {});
  eval.reexecutions_ = std::move(reexecutions);

  for (CommId c = 0; c < static_cast<CommId>(num_comms); ++c) {
    const auto cs = static_cast<std::size_t>(c);
    eval.lrc_[cs] = spec.communicator(c).lrc;
    const auto writer = spec.writer_of(c);
    if (writer.has_value()) {
      eval.rule_[cs] = Rule::kTask;
      eval.writer_[cs] = *writer;
      eval.task_outputs_[static_cast<std::size_t>(*writer)].push_back(c);
    } else if (spec.is_input_communicator(c) && !spec.readers_of(c).empty()) {
      const SensorId s = sensor_by_comm[cs];
      if (s < 0 || s >= static_cast<SensorId>(arch.sensors().size())) {
        return InvalidArgumentError(
            "read input communicator '" + spec.communicator(c).name +
            "' needs a valid sensor binding");
      }
      eval.rule_[cs] = Rule::kSensor;
      eval.sensor_rel_[cs] = arch.sensor(s).reliability;
    }
  }
  // Dataflow edges for dirty propagation: c feeds d when d's writer reads
  // c and is not independent-model (model 3 cuts the dependency).
  for (CommId d = 0; d < static_cast<CommId>(num_comms); ++d) {
    const TaskId t = eval.writer_[static_cast<std::size_t>(d)];
    if (t < 0) continue;
    if (spec.task(t).model == spec::FailureModel::kIndependent) continue;
    for (const CommId c : spec.input_comm_set(t)) {
      eval.downstream_[static_cast<std::size_t>(c)].push_back(d);
    }
  }

  eval.srg_.assign(num_comms, 1.0);
  eval.lambda_.assign(num_tasks, 0.0);
  eval.satisfied_.assign(num_comms, 0);
  eval.relaxed_.assign(num_comms, 0);
  eval.dirty_.assign(num_comms, 0);

  // Initial full pass (every task still hostless: lambda_t = 0).
  for (const CommId c : eval.topo_order_) {
    const auto cs = static_cast<std::size_t>(c);
    eval.srg_[cs] = eval.compute_rule(cs);
  }
  eval.unsatisfied_ = 0;
  for (std::size_t c = 0; c < num_comms; ++c) {
    eval.satisfied_[c] = approx_ge(eval.srg_[c], eval.lrc_[c]) ? 1 : 0;
    if (eval.satisfied_[c] == 0) ++eval.unsatisfied_;
  }
  eval.recording_ = true;
  return eval;
}

Result<SrgEvaluator> SrgEvaluator::FromImplementation(
    const impl::Implementation& impl) {
  const spec::Specification& spec = impl.specification();
  const auto num_comms = spec.communicators().size();
  std::vector<SensorId> sensors(num_comms, -1);
  for (CommId c = 0; c < static_cast<CommId>(num_comms); ++c) {
    if (spec.is_input_communicator(c) && !spec.readers_of(c).empty()) {
      sensors[static_cast<std::size_t>(c)] = impl.sensor_for(c);
    }
  }
  std::vector<int> reexecutions(spec.tasks().size(), 0);
  for (TaskId t = 0; t < static_cast<TaskId>(spec.tasks().size()); ++t) {
    reexecutions[static_cast<std::size_t>(t)] = impl.reexecutions(t);
  }
  LRT_ASSIGN_OR_RETURN(SrgEvaluator eval,
                       Create(spec, impl.architecture(), std::move(sensors),
                              std::move(reexecutions)));
  eval.recording_ = false;  // the snapshot is the baseline, not undoable
  for (TaskId t = 0; t < static_cast<TaskId>(spec.tasks().size()); ++t) {
    eval.set_task_hosts(t, impl.hosts_for(t));
  }
  eval.recording_ = true;
  eval.comm_updates_ = 0;
  eval.evals_ = 0;
  return eval;
}

double SrgEvaluator::slack(CommId c) const {
  const auto cs = static_cast<std::size_t>(c);
  return srg_[cs] - lrc_[cs];
}

void SrgEvaluator::set_relaxed(std::span<const CommId> relaxed) {
  std::fill(relaxed_.begin(), relaxed_.end(), 0);
  for (const CommId c : relaxed) relaxed_[static_cast<std::size_t>(c)] = 1;
  unsatisfied_ = 0;
  for (std::size_t c = 0; c < srg_.size(); ++c) {
    if (relaxed_[c] == 0 && satisfied_[c] == 0) ++unsatisfied_;
  }
}

void SrgEvaluator::refresh_satisfied(std::size_t c) {
  const std::uint8_t now = approx_ge(srg_[c], lrc_[c]) ? 1 : 0;
  if (now == satisfied_[c]) return;
  satisfied_[c] = now;
  if (relaxed_[c] == 0) unsatisfied_ += now ? -1 : 1;
}

void SrgEvaluator::store_srg(std::size_t c, double value) {
  if (recording_) {
    trail_.push_back({static_cast<std::int32_t>(c), srg_[c]});
  }
  srg_[c] = value;
  refresh_satisfied(c);
}

void SrgEvaluator::store_lambda(std::size_t t, double value) {
  if (recording_) {
    trail_.push_back({static_cast<std::int32_t>(srg_.size() + t),
                      lambda_[t]});
  }
  lambda_[t] = value;
}

double SrgEvaluator::compute_rule(std::size_t c) {
  switch (rule_[c]) {
    case Rule::kConstantOne:
      return 1.0;
    case Rule::kSensor:
      return sensor_rel_[c];
    case Rule::kTask:
      break;
  }
  const TaskId t = writer_[c];
  const double lambda_t = lambda_[static_cast<std::size_t>(t)];
  const spec::Task& task = spec_->task(t);
  // Same buffer-fill order and reduction calls as analysis.cpp's srg_rule,
  // so the rounding is bit-identical.
  input_buf_.clear();
  for (const CommId in : spec_->input_comm_set(t)) {
    input_buf_.push_back(srg_[static_cast<std::size_t>(in)]);
  }
  switch (task.model) {
    case spec::FailureModel::kSeries:
      return lambda_t * series_and(input_buf_);
    case spec::FailureModel::kParallel:
      return lambda_t * parallel_or(input_buf_);
    case spec::FailureModel::kIndependent:
      return lambda_t;
  }
  return 0.0;
}

std::size_t SrgEvaluator::set_task_hosts(TaskId task,
                                         std::span<const HostId> hosts) {
  ++evals_;
  const auto ts = static_cast<std::size_t>(task);
  // lambda_t exactly as analysis.cpp's task_reliability: per-host
  // 1 - (1 - hrel)^attempts, reduced with parallel_or in host order.
  const int attempts = reexecutions_[ts] + 1;
  host_rel_buf_.clear();
  for (const HostId h : hosts) {
    const double fail_once = 1.0 - arch_->host(h).reliability;
    host_rel_buf_.push_back(1.0 - std::pow(fail_once, attempts));
  }
  const double lambda = parallel_or(host_rel_buf_);
  if (lambda == lambda_[ts]) {
    return 0;  // same lambda_t => every downstream SRG is unchanged
  }
  store_lambda(ts, lambda);

  // Seed the dirty cone with the task's outputs and propagate.
  for (const CommId c : task_outputs_[ts]) {
    const auto cs = static_cast<std::size_t>(c);
    if (dirty_[cs] == 0) {
      dirty_[cs] = 1;
      heap_.push_back(topo_pos_[cs]);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  }
  const std::int64_t before = comm_updates_;
  propagate();
  return static_cast<std::size_t>(comm_updates_ - before);
}

std::size_t SrgEvaluator::set_task_hosts(TaskId task,
                                         std::span<const HostId> hosts,
                                         int reexecutions) {
  const auto ts = static_cast<std::size_t>(task);
  if (reexecutions != reexecutions_[ts]) {
    if (recording_) {
      trail_.push_back(
          {static_cast<std::int32_t>(srg_.size() + lambda_.size() + ts),
           static_cast<double>(reexecutions_[ts])});
    }
    reexecutions_[ts] = reexecutions;
  }
  return set_task_hosts(task, hosts);
}

void SrgEvaluator::propagate() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const int pos = heap_.back();
    heap_.pop_back();
    const CommId c = topo_order_[static_cast<std::size_t>(pos)];
    const auto cs = static_cast<std::size_t>(c);
    dirty_[cs] = 0;
    const double value = compute_rule(cs);
    ++comm_updates_;
    if (value == srg_[cs]) continue;  // unchanged: the cone ends here
    store_srg(cs, value);
    for (const CommId d : downstream_[cs]) {
      const auto ds = static_cast<std::size_t>(d);
      if (dirty_[ds] == 0) {
        dirty_[ds] = 1;
        heap_.push_back(topo_pos_[ds]);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    }
  }
}

void SrgEvaluator::rollback(Mark m) {
  while (trail_.size() > m) {
    const TrailEntry entry = trail_.back();
    trail_.pop_back();
    const auto slot = static_cast<std::size_t>(entry.slot);
    if (slot < srg_.size()) {
      srg_[slot] = entry.old_value;
      refresh_satisfied(slot);
    } else if (slot < srg_.size() + lambda_.size()) {
      lambda_[slot - srg_.size()] = entry.old_value;
    } else {
      reexecutions_[slot - srg_.size() - lambda_.size()] =
          static_cast<int>(entry.old_value);
    }
  }
}

}  // namespace lrt::reliability
