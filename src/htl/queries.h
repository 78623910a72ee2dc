// AST queries shared by the analysis layers (lint's mode-product
// supergraph in particular): by-name lookups over a parsed program and
// the switch-guard information the cross-mode rules reason about —
// which communicator guards an edge, what its declared init value is,
// and which tasks anywhere in the program write it.
//
// All helpers are read-only views into the ProgramAst; returned pointers
// stay valid as long as the program does.
#ifndef LRT_HTL_QUERIES_H_
#define LRT_HTL_QUERIES_H_

#include <string_view>
#include <vector>

#include "htl/ast.h"

namespace lrt::htl {

/// The communicator / task / mode with the given name, or null.
[[nodiscard]] const CommunicatorAst* find_communicator(
    const ProgramAst& program, std::string_view name);
[[nodiscard]] const TaskAst* find_task(const ModuleAst& module,
                                       std::string_view name);
[[nodiscard]] const ModeAst* find_mode(const ModuleAst& module,
                                       std::string_view name);

/// The module's effective start mode: the declared one, else the first
/// declared mode. Null for a module without modes.
[[nodiscard]] const ModeAst* start_mode(const ModuleAst& module);

/// Every (module, task) pair in the program writing `communicator`
/// through an output port. Modules and tasks appear in declaration
/// order; a task is listed once even when it writes several instances.
struct WriterRef {
  const ModuleAst* module = nullptr;
  const TaskAst* task = nullptr;
  const PortAst* port = nullptr;  ///< the first matching output port
};
[[nodiscard]] std::vector<WriterRef> writers_of(const ProgramAst& program,
                                                std::string_view communicator);

/// Static guard information for one switch edge: the condition
/// communicator's declaration (null when undeclared — the flattener
/// rejects that separately) and whether the guard could *ever* be true:
/// its declared init is boolean true, or some task anywhere in the
/// program writes it. A guard that fails both can never fire, so the
/// edge is statically dead.
struct GuardInfo {
  const CommunicatorAst* condition = nullptr;
  bool init_true = false;
  bool ever_written = false;
  [[nodiscard]] bool statically_enabled() const {
    return condition == nullptr || init_true || ever_written;
  }
};
[[nodiscard]] GuardInfo guard_info(const ProgramAst& program,
                                   const SwitchAst& edge);

}  // namespace lrt::htl

#endif  // LRT_HTL_QUERIES_H_
