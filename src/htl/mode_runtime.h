// Mode-switching execution of HTL programs (paper Section 4: "In the
// example, there are mode switches between tasks, but the switch is always
// to tasks with identical reliability constraints, and the reliability
// analysis of Section 3 applies").
//
// Semantics: each module is a mode automaton, and a mode switch is a
// workload swap at a period boundary. The runtime is a front end of
// sim::detail::RuntimeCore, the machine under sim::simulate: it plugs in
// as the core's update hook. At every period boundary after the first,
// once the boundary instant's commits (task votes and sensor updates) and
// actuation are done and before the opening period latches its inputs,
// the active mode's switch declarations are evaluated in order against
// the committed communicator values. A switch fires when its bool
// condition communicator holds a reliable `true`; the first firing switch
// selects the module's next mode. If any module changed mode, the hook
// returns the Implementation of the new mode selection and the core
// installs it (RuntimeCore::install_swap): communicator values and
// statistics carry over by name, latches reset, and the opening period
// runs the new task set. A condition that is a *sensor* communicator is
// therefore read after its update at the boundary instant itself. (The
// interpreter this replaced evaluated switches before that instant's
// sensor updates, so it saw the reading of the previous access instant.)
//
// Per-mode-selection systems are compiled lazily from one parsed program,
// against one shared Architecture, and cached. Faults, broadcast
// reliability, host kill/restore, value recording, actuators and
// options.engine behave exactly as in sim::simulate; a program whose
// switches never fire produces sim::simulate's result bit for bit.
// Timed execution (model_execution_time) is rejected. The analysis
// obligation — every selection individually reliable and schedulable — is
// the per-mode analysis the paper appeals to, available via
// `analyze_all_selections`.
#ifndef LRT_HTL_MODE_RUNTIME_H_
#define LRT_HTL_MODE_RUNTIME_H_

#include <map>
#include <string>
#include <vector>

#include "htl/compiler.h"
#include "sim/environment.h"
#include "sim/runtime.h"

namespace lrt::htl {

struct ModeSwitchingResult {
  /// Reliability statistics per communicator (as sim::SimulationResult);
  /// simulation.spec_swaps counts the installed selection changes.
  sim::SimulationResult simulation;
  /// Periods spent in each mode selection, keyed by
  /// "module1=modeA,module2=modeB" (modules in declaration order).
  std::map<std::string, std::int64_t> mode_occupancy;
  /// Number of period boundaries at which some module changed mode.
  std::int64_t switches_taken = 0;
};

/// Executes `source` for options.periods specification periods, switching
/// modes per the program's switch declarations. Fails on compile errors in
/// any reachable mode selection, or when the program has no architecture
/// or mapping block.
[[nodiscard]] Result<ModeSwitchingResult> simulate_with_switching(
    std::string_view source, const FunctionRegistry& functions,
    sim::Environment& env, const sim::SimulationOptions& options);

/// Verdict of the per-mode analysis over every mode selection of the
/// program: first = selection key, second = reliable && schedulable.
[[nodiscard]] Result<std::vector<std::pair<std::string, bool>>>
analyze_all_selections(std::string_view source);

}  // namespace lrt::htl

#endif  // LRT_HTL_MODE_RUNTIME_H_
