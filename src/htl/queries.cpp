#include "htl/queries.h"

namespace lrt::htl {

const CommunicatorAst* find_communicator(const ProgramAst& program,
                                         std::string_view name) {
  for (const CommunicatorAst& comm : program.communicators) {
    if (comm.name == name) return &comm;
  }
  return nullptr;
}

const TaskAst* find_task(const ModuleAst& module, std::string_view name) {
  for (const TaskAst& task : module.tasks) {
    if (task.name == name) return &task;
  }
  return nullptr;
}

const ModeAst* find_mode(const ModuleAst& module, std::string_view name) {
  for (const ModeAst& mode : module.modes) {
    if (mode.name == name) return &mode;
  }
  return nullptr;
}

const ModeAst* start_mode(const ModuleAst& module) {
  if (module.modes.empty()) return nullptr;
  if (!module.start_mode.empty()) {
    if (const ModeAst* declared = find_mode(module, module.start_mode)) {
      return declared;
    }
  }
  return &module.modes.front();
}

std::vector<WriterRef> writers_of(const ProgramAst& program,
                                  std::string_view communicator) {
  std::vector<WriterRef> writers;
  for (const ModuleAst& module : program.modules) {
    for (const TaskAst& task : module.tasks) {
      for (const PortAst& port : task.outputs) {
        if (port.communicator != communicator) continue;
        writers.push_back({&module, &task, &port});
        break;
      }
    }
  }
  return writers;
}

GuardInfo guard_info(const ProgramAst& program, const SwitchAst& edge) {
  GuardInfo info;
  info.condition = find_communicator(program, edge.condition);
  if (info.condition != nullptr) {
    info.init_true =
        info.condition->init.is_bool() && info.condition->init.as_bool();
  }
  info.ever_written = !writers_of(program, edge.condition).empty();
  return info;
}

}  // namespace lrt::htl
