#include "htl/mode_runtime.h"

#include <algorithm>
#include <memory>

#include "htl/parser.h"
#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "sim/runtime_core.h"

namespace lrt::htl {
namespace {

using spec::CommId;
using spec::Time;

/// Canonical key of a mode selection: "m1=a,m2=b" in module order.
std::string selection_key(const ProgramAst& program,
                          const ModeSelection& selection) {
  std::string key;
  for (const ModuleAst& module : program.modules) {
    if (!key.empty()) key += ",";
    key += module.name + "=" + selection.mode_by_module.at(module.name);
  }
  return key;
}

/// The mode automata of a program, as a RuntimeCore update hook.
class ModeSwitcher final : public sim::detail::UpdateHook {
 public:
  ModeSwitcher(const ProgramAst& program, const FunctionRegistry& functions)
      : program_(program), functions_(functions) {}

  /// Compiles the start selection and resolves every switch declaration.
  Status init() {
    LRT_ASSIGN_OR_RETURN(CompiledSystem start, compile(program_, functions_));
    if (start.implementation == nullptr) {
      return FailedPreconditionError(
          "mode-switching execution needs architecture and mapping blocks");
    }
    architecture_ = std::move(start.architecture);
    const spec::Specification& spec = *start.specification;
    num_comms_ = spec.communicators().size();
    for (const ModuleAst& module : program_.modules) {
      const auto mode_index = [&module](const std::string& name) {
        return static_cast<int>(
            std::find_if(module.modes.begin(), module.modes.end(),
                         [&name](const ModeAst& m) { return m.name == name; }) -
            module.modes.begin());
      };
      modes_.push_back(
          module.start_mode.empty() ? 0 : mode_index(module.start_mode));
      auto& by_mode = switches_.emplace_back();
      for (const ModeAst& mode : module.modes) {
        auto& switches = by_mode.emplace_back();
        for (const SwitchAst& sw : mode.switches) {
          // compile() checked that the condition is a declared bool
          // communicator and the target a declared mode.
          switches.push_back({*spec.find_communicator(sw.condition),
                              mode_index(sw.target)});
        }
      }
    }
    Selection& entry = cache_[modes_];
    entry.modes = selection_of(modes_);
    entry.specification = std::move(start.specification);
    entry.implementation = std::move(start.implementation);
    current_ = &entry;
    return Status::Ok();
  }

  [[nodiscard]] const impl::Implementation& start() const {
    return *current_->implementation;
  }

  Result<const impl::Implementation*> at_update_point(
      Time now, const sim::detail::RuntimeCore& core) override {
    bool switched = false;
    if (now > 0) {  // no boundary before the first period
      for (std::size_t m = 0; m < modes_.size(); ++m) {
        for (const Switch& sw :
             switches_[m][static_cast<std::size_t>(modes_[m])]) {
          const spec::Value& value = core.committed(sw.condition);
          if (value.is_bottom() || !value.as_bool()) continue;
          switched |= modes_[m] != sw.target;
          modes_[m] = sw.target;
          break;
        }
      }
    }
    if (switched) {
      ++switches_taken_;
      LRT_ASSIGN_OR_RETURN(current_, select(modes_));
    }
    ++current_->occupancy;
    return switched ? current_->implementation.get() : nullptr;
  }

  ModeSwitchingResult finish(sim::SimulationResult simulation) const {
    ModeSwitchingResult result;
    result.simulation = std::move(simulation);
    for (const auto& [modes, entry] : cache_) {
      if (entry.occupancy > 0) {
        result.mode_occupancy[selection_key(program_, entry.modes)] =
            entry.occupancy;
      }
    }
    result.switches_taken = switches_taken_;
    return result;
  }

 private:
  struct Switch {
    CommId condition = -1;
    int target = 0;
  };
  struct Selection {
    ModeSelection modes;
    std::unique_ptr<spec::Specification> specification;
    std::unique_ptr<impl::Implementation> implementation;
    std::int64_t occupancy = 0;  ///< periods run under this selection
  };

  ModeSelection selection_of(const std::vector<int>& modes) const {
    ModeSelection selection;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const ModuleAst& module = program_.modules[m];
      selection.mode_by_module[module.name] =
          module.modes[static_cast<std::size_t>(modes[m])].name;
    }
    return selection;
  }

  /// The cached system of a mode selection, compiled on first use.
  Result<Selection*> select(const std::vector<int>& modes) {
    if (const auto it = cache_.find(modes); it != cache_.end()) {
      return &it->second;
    }
    ModeSelection selection = selection_of(modes);
    LRT_ASSIGN_OR_RETURN(spec::Specification flat,
                         flatten(program_, functions_, selection));
    auto specification =
        std::make_unique<spec::Specification>(std::move(flat));
    // Communicator ids must stay stable across switches (guaranteed by
    // flatten order).
    if (specification->communicators().size() != num_comms_) {
      return InternalError("mode selections disagree on communicators");
    }
    LRT_ASSIGN_OR_RETURN(auto implementation,
                         build_implementation(program_, *specification,
                                              architecture_.get()));
    Selection& entry = cache_[modes];
    entry.modes = std::move(selection);
    entry.specification = std::move(specification);
    entry.implementation = std::move(implementation);
    return &entry;
  }

  const ProgramAst& program_;
  const FunctionRegistry& functions_;
  /// One architecture for every selection: install_swap rejects a foreign
  /// one.
  std::unique_ptr<arch::Architecture> architecture_;
  std::vector<std::vector<std::vector<Switch>>> switches_;  // [module][mode]
  std::size_t num_comms_ = 0;
  std::vector<int> modes_;  ///< current mode index per module
  std::map<std::vector<int>, Selection> cache_;
  Selection* current_ = nullptr;
  std::int64_t switches_taken_ = 0;
};

}  // namespace

Result<ModeSwitchingResult> simulate_with_switching(
    std::string_view source, const FunctionRegistry& functions,
    sim::Environment& env, const sim::SimulationOptions& options) {
  if (options.model_execution_time) {
    return InvalidArgumentError(
        "mode-switching execution does not support timed execution");
  }
  LRT_ASSIGN_OR_RETURN(const ProgramAst program, parse(source));
  ModeSwitcher switcher(program, functions);
  LRT_RETURN_IF_ERROR(switcher.init());
  sim::detail::RuntimeCore core({&switcher.start(), 1}, env, options,
                                &switcher);
  LRT_RETURN_IF_ERROR(core.init());
  LRT_ASSIGN_OR_RETURN(sim::SimulationResult simulation,
                       sim::detail::drive(core, options.engine));
  return switcher.finish(std::move(simulation));
}

Result<std::vector<std::pair<std::string, bool>>> analyze_all_selections(
    std::string_view source) {
  LRT_ASSIGN_OR_RETURN(const ProgramAst program, parse(source));
  LRT_ASSIGN_OR_RETURN(const std::vector<ModeSelection> selections,
                       enumerate_mode_selections(program));
  std::vector<std::pair<std::string, bool>> verdicts;
  for (const ModeSelection& selection : selections) {
    LRT_ASSIGN_OR_RETURN(const CompiledSystem system,
                         compile(program, {}, selection));
    if (system.implementation == nullptr) {
      return FailedPreconditionError(
          "analyze_all_selections needs architecture and mapping blocks");
    }
    LRT_ASSIGN_OR_RETURN(const reliability::ReliabilityReport rel,
                         reliability::analyze(*system.implementation));
    LRT_ASSIGN_OR_RETURN(const sched::SchedulabilityReport sched,
                         sched::analyze_schedulability(
                             *system.implementation));
    verdicts.emplace_back(selection_key(program, selection),
                          rel.reliable && sched.schedulable);
  }
  return verdicts;
}

}  // namespace lrt::htl
