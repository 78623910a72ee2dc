// Design by refinement (paper Section 3): start from an abstract
// specification with generous timing/reliability budgets, prove it valid
// once, then refine tasks step by step — each step checked by the *local*
// refinement constraints only, so the expensive joint analysis never has to
// be repeated (Prop. 2).
//
// Build & run:  ./build/examples/refinement_flow [--engine tick|event]
#include <cstdio>
#include <memory>
#include <string>

#include "obs/session.h"
#include "refine/refinement.h"
#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "sim/runtime.h"
#include "support/argparse.h"

using namespace lrt;

namespace {

struct System {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

/// A filter/control pipeline; the knobs are what refinement may tighten.
System build(const char* task_prefix, spec::Time filter_read,
             spec::Time control_write, double lrc_command, spec::Time wcet) {
  spec::SpecificationConfig spec_config;
  spec_config.name = std::string(task_prefix) + "_system";
  spec_config.communicators = {
      {"s", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.9},
      {"level", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.9},
      {"command", spec::ValueType::kReal, spec::Value::real(0.0), 10,
       lrc_command},
  };
  spec::SpecificationConfig::TaskConfig filter;
  filter.name = std::string(task_prefix) + "_filter";
  filter.inputs = {{"s", filter_read}};
  filter.outputs = {{"level", 2}};  // writes at 20
  spec_config.tasks.push_back(std::move(filter));
  spec::SpecificationConfig::TaskConfig control;
  control.name = std::string(task_prefix) + "_control";
  control.inputs = {{"level", 2}};
  control.outputs = {{"command", control_write}};
  spec_config.tasks.push_back(std::move(control));

  System system;
  system.spec = std::make_unique<spec::Specification>(
      std::move(spec::Specification::Build(std::move(spec_config))).value());

  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h1", 0.99}, {"h2", 0.99}};
  arch_config.sensors = {{"gauge", 0.99}};
  arch_config.default_wcet = wcet;
  arch_config.default_wctt = 2;
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());

  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {
      {std::string(task_prefix) + "_filter", {"h1"}},
      {std::string(task_prefix) + "_control", {"h1", "h2"}}};
  impl_config.sensor_bindings = {{"s", "gauge"}};
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());
  return system;
}

void report_validity(const char* label, const impl::Implementation& impl) {
  const auto rel = reliability::analyze(impl);
  const auto sched = sched::analyze_schedulability(impl);
  std::printf("%s: %s, %s => %s\n", label,
              rel->reliable ? "reliable" : "NOT reliable",
              sched->schedulable ? "schedulable" : "NOT schedulable",
              rel->reliable && sched->schedulable ? "VALID" : "INVALID");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("refinement_flow",
                   "design-by-refinement walkthrough (paper Section 3)");
  std::string engine_name = "tick";
  parser.add_string("--engine", &engine_name,
                    "simulation engine for step 4: tick | event");
  obs::SessionOptions obs_options;
  obs::add_session_flags(parser, &obs_options);
  const Status status = parser.parse(argc, argv);
  if (parser.help_requested()) {
    std::printf("%s", parser.usage().c_str());
    return 0;
  }
  if (!status.ok() || !parser.positionals().empty()) {
    if (!status.ok())
      std::fprintf(stderr, "refinement_flow: %s\n",
                   status.to_string().c_str());
    std::fprintf(stderr, "%s", parser.usage().c_str());
    return 2;
  }
  if (engine_name != "tick" && engine_name != "event") {
    std::fprintf(stderr, "unknown --engine '%s' (want tick | event)\n",
                 engine_name.c_str());
    return 2;
  }
  const obs::ScopedSession session(obs_options);

  std::printf("=== incremental design by refinement ===\n\n");

  // Step 0: the abstract design. Filter reads late (time 0), control has
  // the whole window, LRC 0.9, WCET budget 8.
  System abstract_sys = build("abs", /*filter_read=*/0,
                              /*control_write=*/4, /*lrc_command=*/0.9,
                              /*wcet=*/8);
  std::printf("step 0 — abstract design, full joint analysis:\n  ");
  report_validity("abstract", *abstract_sys.impl);

  // Step 1: the implementation team delivers concrete tasks: smaller
  // measured WCET (5), lower LRC demand (0.85), same LETs.
  System concrete_sys = build("impl", 0, 4, 0.85, 5);
  refine::RefinementMap kappa;
  kappa.task_map = {{"impl_filter", "abs_filter"},
                    {"impl_control", "abs_control"}};
  const auto check =
      refine::check_refinement(*concrete_sys.impl, *abstract_sys.impl, kappa);
  std::printf("\nstep 1 — concrete tasks, LOCAL refinement check only:\n");
  std::printf("  refinement constraints: %s",
              check->refines ? "all satisfied\n" : check->summary().c_str());
  std::printf("  => by Prop. 2 the concrete system inherits validity; "
              "re-analysis optional.\n");
  std::printf("  (cross-check) ");
  report_validity("concrete", *concrete_sys.impl);

  // Step 2: a bad refinement attempt — the new control task wants to write
  // a HIGHER-reliability command than the abstract design promised.
  System ambitious_sys = build("amb", 0, 4, /*lrc_command=*/0.95, 5);
  refine::RefinementMap kappa2;
  kappa2.task_map = {{"amb_filter", "abs_filter"},
                     {"amb_control", "abs_control"}};
  const auto check2 =
      refine::check_refinement(*ambitious_sys.impl, *abstract_sys.impl,
                               kappa2);
  std::printf("\nstep 2 — refinement demanding MORE reliability "
              "(LRC 0.95 > 0.9):\n%s", check2->summary().c_str());

  // Step 3: a bad refinement attempt — WCET grew beyond the budget.
  System slow_sys = build("slow", 0, 4, 0.85, /*wcet=*/9);
  refine::RefinementMap kappa3;
  kappa3.task_map = {{"slow_filter", "abs_filter"},
                     {"slow_control", "abs_control"}};
  const auto check3 =
      refine::check_refinement(*slow_sys.impl, *abstract_sys.impl, kappa3);
  std::printf("\nstep 3 — refinement whose WCET exceeds the budget:\n%s",
              check3->summary().c_str());

  std::printf("\nThe two rejected refinements were caught by local checks "
              "on (t', kappa(t')) pairs alone —\nno global schedulability "
              "or reliability analysis was run for them.\n");

  // Step 4: exercise the accepted concrete system on the runtime the
  // refinement guarantees extend to — either engine, same semantics.
  sim::SimulationOptions run;
  run.engine = engine_name == "event" ? sim::SimulationOptions::Engine::kEvent
                                      : sim::SimulationOptions::Engine::kTick;
  run.periods = 200;
  sim::NullEnvironment env;
  const auto simulated = sim::simulate(*concrete_sys.impl, env, run);
  if (!simulated.ok()) {
    std::fprintf(stderr, "simulation error: %s\n",
                 simulated.status().to_string().c_str());
    return 1;
  }
  const sim::CommStats* command = simulated->find("command");
  std::printf("\nstep 4 — %lld periods on the %s engine: "
              "limavg(command)=%.4f (mu=0.85), divergences=%lld\n",
              static_cast<long long>(simulated->periods), engine_name.c_str(),
              command != nullptr ? command->limit_average : -1.0,
              static_cast<long long>(simulated->vote_divergences));
  return 0;
}
