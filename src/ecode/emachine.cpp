#include "ecode/emachine.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "sim/runtime_core.h"

namespace lrt::ecode {
namespace {

using arch::HostId;
using spec::CommId;
using spec::TaskId;
using spec::Time;

/// What one host does at one offset of the specification period, in
/// program order.
struct Reaction {
  std::vector<CommId> sensors;
  std::vector<std::pair<CommId, Time>> votes;  ///< (comm, first due)
  std::vector<CommId> actuations;
  std::vector<std::pair<TaskId, int>> latches;
  std::vector<TaskId> releases;

  [[nodiscard]] bool empty() const {
    return sensors.empty() && votes.empty() && actuations.empty() &&
           latches.empty() && releases.empty();
  }
  friend bool operator==(const Reaction&, const Reaction&) = default;
};
using Reactions = std::map<Time, Reaction>;

/// Decodes `program` by following its trigger chain for one period from
/// its first block, the way the E-machine would execute it.
Result<Reactions> decode(const EcodeProgram& program) {
  Reactions reactions;
  if (program.blocks.empty()) return reactions;
  const std::string where = "E-code of host " + std::to_string(program.host);
  const Time start = program.blocks.front().first;
  Time now = start;
  auto pc = static_cast<std::size_t>(program.blocks.front().second);
  while (now < start + program.period) {
    Reaction& reaction = reactions[now % program.period];
    bool armed = false;
    Time next = now;
    std::size_t target = 0;
    for (bool halted = false; !halted;) {
      if (pc >= program.code.size()) {
        return FailedPreconditionError(where + " runs off its code at " +
                                       std::to_string(now));
      }
      const Instruction inst = program.code[pc++];
      switch (inst.op) {
        case Opcode::kCallSensor:
          reaction.sensors.push_back(inst.arg0);
          break;
        case Opcode::kCallVote:
          reaction.votes.emplace_back(inst.arg0, inst.arg1);
          break;
        case Opcode::kCallActuate:
          reaction.actuations.push_back(inst.arg0);
          break;
        case Opcode::kCallLatch:
          reaction.latches.emplace_back(inst.arg0, inst.arg1);
          break;
        case Opcode::kRelease:
          reaction.releases.push_back(inst.arg0);
          break;
        case Opcode::kFuture:
          armed = inst.arg0 > 0 && inst.arg1 >= 0;
          next = now + inst.arg0;
          target = static_cast<std::size_t>(inst.arg1);
          break;
        case Opcode::kHalt:
          halted = true;
          break;
      }
    }
    if (!armed) {
      return FailedPreconditionError(
          where + " halts at " + std::to_string(now) +
          " without arming a later reaction");
    }
    now = next;
    pc = target;
  }
  return reactions;
}

/// The activation table projected onto `host`: every row's sensor
/// commits and votes, the actuations on the I/O host, and the latches and
/// releases of the tasks mapped to `host`.
Reactions project(const sim::detail::ActivationTable& table,
                  const impl::Implementation& impl, HostId host, bool io) {
  const auto mapped = [&impl, host](TaskId task) {
    const auto& hosts = impl.hosts_for(task);
    return std::find(hosts.begin(), hosts.end(), host) != hosts.end();
  };
  Reactions reactions;
  for (const sim::detail::ActivationRow& row : table.rows) {
    Reaction reaction;
    for (const CommId c : table.slice(table.sensors, row.sensors)) {
      reaction.sensors.push_back(c);
    }
    for (const auto& vote : table.slice(table.votes, row.votes)) {
      reaction.votes.emplace_back(vote.comm, vote.first_due);
    }
    if (io) {
      for (const CommId c : table.slice(table.actuations, row.actuations)) {
        reaction.actuations.push_back(c);
      }
    }
    for (const auto& latch : table.slice(table.latches, row.latches)) {
      if (mapped(latch.task)) {
        reaction.latches.emplace_back(latch.task, latch.input);
      }
    }
    for (const TaskId t : table.slice(table.releases, row.releases)) {
      if (mapped(t)) reaction.releases.push_back(t);
    }
    if (!reaction.empty()) reactions.emplace(row.offset, std::move(reaction));
  }
  return reactions;
}

/// Fails unless `program` reacts exactly as the table prescribes.
Status check_program(const EcodeProgram& program,
                     const sim::detail::ActivationTable& table,
                     const impl::Implementation& impl, HostId io_host) {
  const std::string where = "E-code of host " + std::to_string(program.host);
  if (program.period != table.period) {
    return FailedPreconditionError(where + " has period " +
                                   std::to_string(program.period) +
                                   ", the specification " +
                                   std::to_string(table.period));
  }
  LRT_ASSIGN_OR_RETURN(Reactions decoded, decode(program));
  std::erase_if(decoded, [](const auto& entry) {
    return entry.second.empty();
  });
  const Reactions expected =
      project(table, impl, program.host, program.host == io_host);
  if (decoded == expected) return Status::Ok();
  // Name the first offset where the two disagree.
  const auto [d, e] = std::mismatch(decoded.begin(), decoded.end(),
                                    expected.begin(), expected.end());
  const Time at = d == decoded.end()   ? e->first
                  : e == expected.end() ? d->first
                                        : std::min(d->first, e->first);
  return FailedPreconditionError(
      where + " disagrees with the activation table at offset " +
      std::to_string(at));
}

}  // namespace

Result<sim::SimulationResult> run_ecode(
    std::span<const EcodeProgram> programs, const impl::Implementation& impl,
    sim::Environment& env, const sim::SimulationOptions& options,
    arch::HostId io_host) {
  sim::detail::RuntimeCore core({&impl, 1}, env, options);
  LRT_RETURN_IF_ERROR(core.init());
  if (programs.size() != impl.architecture().hosts().size()) {
    return InvalidArgumentError("E-machine needs one program per host");
  }
  for (std::size_t h = 0; h < programs.size(); ++h) {
    if (programs[h].host != static_cast<HostId>(h)) {
      return InvalidArgumentError("E-code programs must be in host order");
    }
    LRT_RETURN_IF_ERROR(
        check_program(programs[h], core.table(), impl, io_host));
  }
  return sim::detail::drive(core, options.engine);
}

Result<sim::SimulationResult> run_emachine(
    const impl::Implementation& impl, sim::Environment& env,
    const sim::SimulationOptions& options, arch::HostId io_host) {
  CodegenOptions codegen;
  codegen.io_host = io_host;
  codegen.actuator_comms = options.actuator_comms;
  std::vector<EcodeProgram> programs;
  for (HostId h = 0;
       h < static_cast<HostId>(impl.architecture().hosts().size()); ++h) {
    LRT_ASSIGN_OR_RETURN(EcodeProgram program,
                         generate_ecode(impl, h, codegen));
    programs.push_back(std::move(program));
  }
  return run_ecode(programs, impl, env, options, io_host);
}

}  // namespace lrt::ecode
