#include "htl/compiler.h"

#include <algorithm>
#include <set>

#include "htl/parser.h"

namespace lrt::htl {
namespace {

/// "line L:C: message" — the uniform location prefix of every frontend
/// error (column 0 omits the ":C" part for constructs without one).
Status line_error(int line, int column, const std::string& message) {
  std::string prefix = "line " + std::to_string(line);
  if (column > 0) prefix += ":" + std::to_string(column);
  return ParseError(prefix + ": " + message);
}

/// Resolves the mode to flatten for `module`.
Result<const ModeAst*> selected_mode(const ModuleAst& module,
                                     const ModeSelection& selection) {
  if (module.modes.empty()) {
    return line_error(module.line, module.column,
                      "module '" + module.name + "' declares no modes");
  }
  std::string wanted = module.start_mode;
  const auto it = selection.mode_by_module.find(module.name);
  if (it != selection.mode_by_module.end()) wanted = it->second;
  if (wanted.empty()) wanted = module.modes.front().name;
  for (const ModeAst& mode : module.modes) {
    if (mode.name == wanted) return &mode;
  }
  return line_error(module.line, module.column,
                    "module '" + module.name + "' has no mode named '" +
                        wanted + "'");
}

/// Per-module semantic checks that do not depend on the selection.
Status check_module(const ProgramAst& program, const ModuleAst& module) {
  std::set<std::string> mode_names;
  std::set<std::string> task_names;
  for (const TaskAst& task : module.tasks) {
    if (!task_names.insert(task.name).second) {
      return line_error(task.line, task.column,
                        "duplicate task '" + task.name + "' in module '" +
                            module.name + "'");
    }
  }
  for (const ModeAst& mode : module.modes) {
    if (!mode_names.insert(mode.name).second) {
      return line_error(mode.line, mode.column,
                        "duplicate mode '" + mode.name + "' in module '" +
                            module.name + "'");
    }
    if (mode.period <= 0) {
      return line_error(mode.line, mode.column,
                        "mode '" + mode.name +
                            "' must have a positive period");
    }
    std::set<std::string> invoked;
    for (const std::string& task : mode.invokes) {
      if (task_names.count(task) == 0) {
        return line_error(mode.line, mode.column,
                          "mode '" + mode.name + "' invokes unknown task '" +
                              task + "'");
      }
      if (!invoked.insert(task).second) {
        return line_error(mode.line, mode.column,
                          "mode '" + mode.name + "' invokes task '" + task +
                              "' more than once");
      }
    }
    for (const SwitchAst& switch_ast : mode.switches) {
      const auto comm = std::find_if(
          program.communicators.begin(), program.communicators.end(),
          [&switch_ast](const CommunicatorAst& c) {
            return c.name == switch_ast.condition;
          });
      if (comm == program.communicators.end()) {
        return line_error(switch_ast.line, switch_ast.column,
                          "switch condition references unknown communicator "
                          "'" + switch_ast.condition + "'");
      }
      if (comm->type != spec::ValueType::kBool) {
        return line_error(switch_ast.line, switch_ast.column,
                          "switch condition '" + switch_ast.condition +
                              "' must be a bool communicator");
      }
      if (mode_names.count(switch_ast.target) == 0 &&
          std::none_of(module.modes.begin(), module.modes.end(),
                       [&switch_ast](const ModeAst& m) {
                         return m.name == switch_ast.target;
                       })) {
        return line_error(switch_ast.line, switch_ast.column,
                          "switch targets unknown mode '" +
                              switch_ast.target + "'");
      }
    }
  }
  if (!module.start_mode.empty() && mode_names.count(module.start_mode) == 0) {
    return line_error(module.line, module.column,
                      "start mode '" + module.start_mode +
                          "' is not declared in module '" + module.name +
                          "'");
  }
  return Status::Ok();
}

}  // namespace

Result<spec::Specification> flatten(const ProgramAst& program,
                                    const FunctionRegistry& functions,
                                    const ModeSelection& selection) {
  // A selection naming a module the program does not declare is almost
  // certainly a typo; fail loudly rather than silently using start modes.
  for (const auto& [module_name, mode_name] : selection.mode_by_module) {
    if (std::none_of(program.modules.begin(), program.modules.end(),
                     [&module_name](const ModuleAst& m) {
                       return m.name == module_name;
                     })) {
      return NotFoundError("mode selection references unknown module '" +
                           module_name + "'");
    }
    (void)mode_name;
  }

  spec::SpecificationConfig config;
  config.name = program.name;
  for (const CommunicatorAst& comm : program.communicators) {
    config.communicators.push_back(
        {comm.name, comm.type, comm.init, comm.period, comm.lrc});
  }

  std::set<std::string> global_task_names;
  std::int64_t common_period = 0;
  const ModeAst* period_witness = nullptr;
  for (const ModuleAst& module : program.modules) {
    LRT_RETURN_IF_ERROR(check_module(program, module));
    LRT_ASSIGN_OR_RETURN(const ModeAst* mode,
                         selected_mode(module, selection));
    if (common_period == 0) {
      common_period = mode->period;
      period_witness = mode;
    } else if (common_period != mode->period) {
      return line_error(mode->line, mode->column,
                        "selected mode '" + mode->name + "' has period " +
                            std::to_string(mode->period) +
                            " but another module's mode has period " +
                            std::to_string(common_period) +
                            "; the flattening subset requires equal periods");
    }
    for (const std::string& task_name : mode->invokes) {
      if (!global_task_names.insert(task_name).second) {
        return line_error(mode->line, mode->column,
                          "task '" + task_name +
                              "' is invoked by more than one module");
      }
      const auto task_ast = std::find_if(
          module.tasks.begin(), module.tasks.end(),
          [&task_name](const TaskAst& t) { return t.name == task_name; });
      spec::SpecificationConfig::TaskConfig task;
      task.name = task_ast->name;
      for (const PortAst& port : task_ast->inputs) {
        task.inputs.emplace_back(port.communicator, port.instance);
      }
      for (const PortAst& port : task_ast->outputs) {
        task.outputs.emplace_back(port.communicator, port.instance);
      }
      task.model = task_ast->model;
      task.defaults = task_ast->defaults;
      const auto fn = functions.find(task_ast->name);
      if (fn != functions.end()) task.function = fn->second;
      config.tasks.push_back(std::move(task));
    }
  }

  LRT_ASSIGN_OR_RETURN(spec::Specification spec,
                       spec::Specification::Build(std::move(config)));

  // HTL semantics: invoked tasks repeat with the mode period, so the
  // flattened specification period must coincide with it.
  if (common_period != 0 && spec.hyperperiod() != common_period) {
    return line_error(
        period_witness != nullptr ? period_witness->line : 0,
        period_witness != nullptr ? period_witness->column : 0,
        "program '" + program.name + "': selected mode period " +
            std::to_string(common_period) +
            " does not match the derived specification period " +
            std::to_string(spec.hyperperiod()) +
            " (task write times must tile the mode period)");
  }
  return spec;
}

Result<refine::RefinementMap> refinement_map(const ProgramAst& program) {
  if (!program.refines.has_value()) {
    return FailedPreconditionError("program '" + program.name +
                                   "' declares no 'refines' parent");
  }
  refine::RefinementMap map;
  std::set<std::string> seen;
  for (const RefineAst& refinement : program.refinements) {
    if (!seen.insert(refinement.local_task).second) {
      return line_error(refinement.line, refinement.column,
                        "task '" + refinement.local_task +
                            "' appears in two refine declarations");
    }
    map.task_map.emplace_back(refinement.local_task, refinement.parent_task);
  }
  return map;
}

Result<std::vector<ModeSelection>> enumerate_mode_selections(
    const ProgramAst& program, std::size_t limit) {
  std::vector<ModeSelection> selections = {ModeSelection{}};
  for (const ModuleAst& module : program.modules) {
    if (module.modes.empty()) {
      return line_error(module.line, module.column,
                        "module '" + module.name + "' declares no modes");
    }
    std::vector<ModeSelection> next;
    next.reserve(selections.size() * module.modes.size());
    for (const ModeSelection& base : selections) {
      for (const ModeAst& mode : module.modes) {
        ModeSelection extended = base;
        extended.mode_by_module[module.name] = mode.name;
        next.push_back(std::move(extended));
        if (next.size() > limit) {
          return InvalidArgumentError(
              "mode-selection product of program '" + program.name +
              "' exceeds the limit of " + std::to_string(limit));
        }
      }
    }
    selections = std::move(next);
  }
  return selections;
}

namespace {

/// The program's architecture block as a model; null when it has none.
Result<std::unique_ptr<arch::Architecture>> build_architecture(
    const ProgramAst& program) {
  if (!program.architecture.has_value()) {
    return std::unique_ptr<arch::Architecture>();
  }
  const ArchitectureAst& ast = *program.architecture;
  arch::ArchitectureConfig config;
  config.name = program.name + "_arch";
  for (const HostAst& host : ast.hosts) {
    config.hosts.push_back({host.name, host.reliability});
  }
  for (const SensorAst& sensor : ast.sensors) {
    config.sensors.push_back({sensor.name, sensor.reliability});
  }
  config.default_wcet = std::nullopt;
  config.default_wctt = std::nullopt;
  for (const MetricAst& metric : ast.metrics) {
    if (metric.task.empty()) {
      config.default_wcet = metric.wcet;
      config.default_wctt = metric.wctt;
    } else {
      config.metrics.push_back(
          {metric.task, metric.host, metric.wcet, metric.wctt});
    }
  }
  LRT_ASSIGN_OR_RETURN(arch::Architecture architecture,
                       arch::Architecture::Build(std::move(config)));
  return std::make_unique<arch::Architecture>(std::move(architecture));
}

}  // namespace

Result<std::unique_ptr<impl::Implementation>> build_implementation(
    const ProgramAst& program, const spec::Specification& spec,
    const arch::Architecture* architecture) {
  if (!program.mapping.has_value()) {
    return std::unique_ptr<impl::Implementation>();
  }
  if (architecture == nullptr) {
    return line_error(program.mapping->line, program.mapping->column,
                      "program '" + program.name +
                          "' has a mapping block but no architecture "
                          "block");
  }
  const MappingAst& ast = *program.mapping;
  impl::ImplementationConfig config;
  config.name = program.name + "_impl";
  for (const MapAst& map : ast.maps) {
    // Mappings may cover tasks of non-selected modes; keep only those in
    // the flattened specification, but reject names declared nowhere.
    if (!spec.find_task(map.task).has_value()) {
      const bool declared_somewhere = std::any_of(
          program.modules.begin(), program.modules.end(),
          [&map](const ModuleAst& module) {
            return std::any_of(module.tasks.begin(), module.tasks.end(),
                               [&map](const TaskAst& t) {
                                 return t.name == map.task;
                               });
          });
      if (declared_somewhere) continue;
      return line_error(map.line, map.column,
                        "mapping references unknown task '" + map.task +
                            "'");
    }
    config.task_mappings.push_back({map.task, map.hosts, map.retries,
                                    map.checkpoints,
                                    map.checkpoint_overhead});
  }
  for (const BindAst& bind : ast.binds) {
    config.sensor_bindings.push_back({bind.communicator, bind.sensor});
  }
  LRT_ASSIGN_OR_RETURN(
      impl::Implementation implementation,
      impl::Implementation::Build(spec, *architecture, std::move(config)));
  return std::make_unique<impl::Implementation>(std::move(implementation));
}

namespace {

/// Flattens `system.ast` and builds its architecture and mapping.
Status compile_into(CompiledSystem& system, const FunctionRegistry& functions,
                    const ModeSelection& selection) {
  LRT_ASSIGN_OR_RETURN(spec::Specification spec,
                       flatten(system.ast, functions, selection));
  system.specification =
      std::make_unique<spec::Specification>(std::move(spec));
  LRT_ASSIGN_OR_RETURN(system.architecture, build_architecture(system.ast));
  LRT_ASSIGN_OR_RETURN(
      system.implementation,
      build_implementation(system.ast, *system.specification,
                           system.architecture.get()));
  return Status::Ok();
}

}  // namespace

Result<CompiledSystem> compile(std::string_view source,
                               const FunctionRegistry& functions,
                               const ModeSelection& selection) {
  CompiledSystem system;
  LRT_ASSIGN_OR_RETURN(system.ast, parse(source));
  LRT_RETURN_IF_ERROR(compile_into(system, functions, selection));
  return system;
}

Result<CompiledSystem> compile(const ProgramAst& program,
                               const FunctionRegistry& functions,
                               const ModeSelection& selection) {
  CompiledSystem system;
  system.ast = program;
  LRT_RETURN_IF_ERROR(compile_into(system, functions, selection));
  return system;
}

}  // namespace lrt::htl
