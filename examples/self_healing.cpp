// Self-healing three-tank system: a permanent host unplug that the static
// mapping cannot survive, repaired online by the adaptive layer.
//
// Four parts, each a gate (the binary exits nonzero if any fails):
//  1. Single-run story: scenario 1 (t1, t2 replicated on {h1, h2}) with an
//     0.98 control LRC; h1 is unplugged permanently mid-run. The failure
//     detector suspects h1 after 24 consecutive silent invocations, the
//     repair planner remaps onto {h2, h3}, re-runs the Section 3 analysis
//     and the schedulability check, and the runtime installs the repaired
//     mapping at the next period boundary — no LRC shed.
//  2. Static-vs-adaptive Monte Carlo: under the same fault plan, the
//     static mapping demonstrably misses the 0.98 control LRC, while the
//     self-healing runtime's post-repair empirical reliability meets every
//     mu_c (Wilson interval not below mu_c) and the re-analyzed lambda_c.
//  3. Capacity-starved degradation: the 2-host platform, where losing h1
//     leaves no mapping that can meet 0.98. The planner sheds u1 then u2
//     (least achievable slack first) and the survivors' LRCs still hold.
//  4. False-positive guard: pure Bernoulli faults at nominal hrel across
//     the full trial budget must never trip a repair.
//
// Build & run:
//   ./build/examples/self_healing [trials] [periods] [report.json]
//     [--trace-out trace.json] [--metrics-out metrics.json]
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "adapt/recovery_validation.h"
#include "adapt/self_healing.h"
#include "obs/session.h"
#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "sim/environment.h"
#include "sim/monte_carlo.h"
#include "support/argparse.h"

using namespace lrt;

namespace {

constexpr arch::HostId kH1 = 0;

plant::ThreeTankScenario scenario_with(int host_count) {
  plant::ThreeTankScenario scenario;
  scenario.variant = plant::ThreeTankVariant::kReplicatedTasks;
  scenario.lrc_controls = 0.98;
  scenario.host_count = host_count;
  return scenario;
}

/// Unplug h1 permanently at 20% of the run.
sim::FaultPlan unplug_h1(std::int64_t periods) {
  sim::FaultPlan faults;
  faults.host_events.push_back({periods / 5 * 500, kH1, false});
  return faults;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("self_healing",
                   "adaptive-recovery validation of the 3TS case study");
  parser.set_positional_usage("[trials] [periods] [report.json]");
  std::string engine_name = "tick";
  parser.add_string("--engine", &engine_name,
                    "simulation engine: tick | event (bit-identical)");
  obs::SessionOptions obs_options;
  obs::add_session_flags(parser, &obs_options);
  if (const Status status = parser.parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.to_string().c_str(),
                 parser.usage().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::printf("%s", parser.usage().c_str());
    return 0;
  }
  const auto& args = parser.positionals();
  const std::int64_t trials =
      args.size() > 0 ? std::atoll(args[0].c_str()) : 100;
  const std::int64_t periods =
      args.size() > 1 ? std::atoll(args[1].c_str()) : 400;
  const std::string report_path = args.size() > 2 ? args[2] : "";
  if (engine_name != "tick" && engine_name != "event") {
    std::fprintf(stderr, "unknown --engine '%s' (want tick | event)\n",
                 engine_name.c_str());
    return 2;
  }
  const auto engine = engine_name == "event"
                          ? sim::SimulationOptions::Engine::kEvent
                          : sim::SimulationOptions::Engine::kTick;
  const obs::ScopedSession session(obs_options);
  bool ok = true;

  // The exhaustive strategy exercises the instrumented branch-and-bound
  // fast engine (prunes, incumbent updates) on every planned repair; the
  // planned mappings still pass all four gates below.
  adapt::SelfHealingOptions healing;
  healing.repair.synthesis.strategy =
      synth::SynthesisOptions::Strategy::kExhaustive;

  // --- part 1: single-run story --------------------------------------
  auto system = plant::make_three_tank_system(scenario_with(3));
  if (!system.ok()) {
    std::printf("3TS build error: %s\n",
                system.status().to_string().c_str());
    return 1;
  }
  adapt::SelfHealingController controller(*system->implementation, healing);
  sim::SimulationOptions run;
  run.engine = engine;
  run.faults = unplug_h1(periods);
  run.periods = periods;
  run.actuator_comms = {"u1", "u2"};
  run.monitor = &controller;
  sim::NullEnvironment env;
  auto single = sim::simulate(*system->implementation, env, run);
  if (!single.ok()) {
    std::printf("simulation error: %s\n",
                single.status().to_string().c_str());
    return 1;
  }
  std::printf("--- single run: permanent h1 unplug at tick %lld ---\n",
              static_cast<long long>(run.faults.host_events[0].time));
  if (controller.repaired()) {
    const adapt::RepairRecord& repair = controller.repairs().front();
    std::printf(
        "h1 suspected at tick %lld (after %d consecutive misses), "
        "repair committed at tick %lld\n",
        static_cast<long long>(
            controller.detector().host_suspected_since(kH1)),
        controller.detector().options().suspect_after_misses,
        static_cast<long long>(repair.committed_at));
    std::printf("%s\n", repair.plan.describe().c_str());
    std::printf("re-analyzed mapping:\n%s",
                repair.plan.reliability.summary().c_str());
    ok = ok && repair.plan.feasible && repair.plan.schedulable &&
         repair.plan.shed_communicators.empty() &&
         single->remaps_installed == 1;
  } else {
    std::printf("controller never repaired: %s\n",
                controller.last_error().to_string().c_str());
    ok = false;
  }

  // --- part 2: static-vs-adaptive Monte Carlo -------------------------
  std::printf("\n--- monte carlo: static vs self-healing (%lld trials, "
              "%lld periods) ---\n",
              static_cast<long long>(trials),
              static_cast<long long>(periods));
  sim::MonteCarloOptions mc;
  mc.trials = trials;
  mc.simulation.engine = engine;
  mc.simulation.periods = periods;
  mc.simulation.faults = unplug_h1(periods);
  mc.simulation.actuator_comms = {"u1", "u2"};

  sim::MonteCarloRunner static_runner(mc);
  const auto static_report = static_runner.run(*system->implementation);
  if (!static_report.ok()) {
    std::printf("static campaign error: %s\n",
                static_report.status().to_string().c_str());
    return 1;
  }
  const sim::CommAggregate* static_u1 = static_report->find("u1");
  std::printf("static u1: empirical=%.6f ci_high=%.6f vs mu=0.98 -> %s\n",
              static_u1->empirical, static_u1->interval.high,
              static_u1->meets_lrc ? "meets (unexpected)" : "MISSES");
  ok = ok && !static_u1->meets_lrc;

  adapt::RecoveryValidationOptions validation;
  validation.monte_carlo = mc;
  validation.controller = healing;
  const adapt::RecoveryValidator validator(validation);
  const auto recovery = validator.run(*system->implementation);
  if (!recovery.ok()) {
    std::printf("recovery campaign error: %s\n",
                recovery.status().to_string().c_str());
    return 1;
  }
  std::printf("%s", recovery->summary().c_str());
  ok = ok && recovery->recovery_validated &&
       recovery->repaired_trials == trials &&
       recovery->shed_communicators.empty();

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) {
      std::printf("cannot write %s\n", report_path.c_str());
      return 1;
    }
    out << adapt::to_json(*recovery) << "\n";
    std::printf("report written to %s\n", report_path.c_str());
  }

  // --- part 3: capacity-starved degradation ---------------------------
  std::printf("\n--- capacity-starved 2-host platform ---\n");
  auto starved = plant::make_three_tank_system(scenario_with(2));
  if (!starved.ok()) {
    std::printf("2-host build error: %s\n",
                starved.status().to_string().c_str());
    return 1;
  }
  const auto plan = adapt::plan_repair(*starved->implementation,
                                       std::vector<arch::HostId>{kH1});
  if (!plan.ok()) {
    std::printf("planner error: %s\n", plan.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", plan->describe().c_str());
  const bool shed_controls = plan->shed_communicators.size() == 2 &&
                             plan->shed_communicators[0] == "u1" &&
                             plan->shed_communicators[1] == "u2";
  if (!shed_controls) {
    std::printf("expected exactly u1, u2 shed (least slack first)\n");
  }
  ok = ok && plan->feasible && shed_controls && plan->schedulable;
  for (const reliability::CommunicatorVerdict& verdict :
       plan->reliability.verdicts) {
    const bool shed = verdict.name == "u1" || verdict.name == "u2";
    if (!shed && !verdict.satisfied) {
      std::printf("surviving LRC of %s violated after degradation\n",
                  verdict.name.c_str());
      ok = false;
    }
  }

  // --- part 4: false-positive guard -----------------------------------
  std::printf("\n--- false-positive guard: nominal Bernoulli faults ---\n");
  sim::MonteCarloOptions nominal = mc;
  nominal.simulation.faults.host_events.clear();
  adapt::RecoveryValidationOptions guard;
  guard.monte_carlo = nominal;
  guard.controller = healing;
  const adapt::RecoveryValidator guard_validator(guard);
  const auto guarded = guard_validator.run(*system->implementation);
  if (!guarded.ok()) {
    std::printf("guard campaign error: %s\n",
                guarded.status().to_string().c_str());
    return 1;
  }
  std::printf("repairs under nominal faults: %lld (want 0), "
              "remaps installed: %lld (want 0)\n",
              static_cast<long long>(guarded->repaired_trials),
              static_cast<long long>(guarded->monte_carlo.remaps_installed));
  ok = ok && guarded->repaired_trials == 0 &&
       guarded->monte_carlo.remaps_installed == 0;

  std::printf(ok ? "\nself-healing validation PASSED\n"
                 : "\nself-healing validation FAILED\n");
  return ok ? 0 : 1;
}
