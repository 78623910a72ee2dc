// E9 (extension): adaptive recovery — what self-healing costs and buys.
//
// The table reproduces the headline claim of the adaptive layer on the
// three-tank system with an 0.98 control LRC: after a permanent h1 unplug
// the static scenario-1 mapping degrades u1 to the baseline 0.970299 SRG,
// while the self-healing runtime detects the loss, replans onto the
// survivors, and restores the analyzed 0.98000199 — the whole-run
// empirical u1 reliability splits accordingly. The capacity-starved
// two-host platform shows the graceful-degradation path (u1, u2 shed in
// slack order, surviving LRCs intact).
//
// Benchmarks: repair-planner latency (greedy vs exhaustive), simulation
// overhead of the monitor hooks (none vs observe-only vs full
// self-healing), and recovery-campaign throughput.
#include <vector>

#include "adapt/recovery_validation.h"
#include "adapt/repair_planner.h"
#include "adapt/self_healing.h"
#include "bench/bench_util.h"
#include "plant/three_tank_system.h"
#include "sim/monte_carlo.h"
#include "sim/runtime.h"

namespace {

using namespace lrt;

plant::ThreeTankScenario adaptive_scenario(int host_count) {
  plant::ThreeTankScenario scenario;
  scenario.variant = plant::ThreeTankVariant::kReplicatedTasks;
  scenario.lrc_controls = 0.98;
  scenario.host_count = host_count;
  return scenario;
}

sim::SimulationOptions unplug_options(std::int64_t periods) {
  sim::SimulationOptions options;
  options.periods = periods;
  options.actuator_comms = {"u1", "u2"};
  options.faults.host_events = {{periods / 5 * 500, 0, false}};
  return options;
}

double whole_run_u1(const impl::Implementation& impl,
                    sim::RuntimeMonitor* monitor) {
  sim::NullEnvironment env;
  sim::SimulationOptions options = unplug_options(2000);
  options.monitor = monitor;
  const auto result = sim::simulate(impl, env, options);
  if (!result.ok()) return 0.0;
  const sim::CommStats* u1 = result->find("u1");
  return u1 == nullptr ? 0.0 : u1->update_rate();
}

void print_table() {
  bench::header("E9 / adaptive layer",
                "self-healing after a permanent host unplug");

  auto system = plant::make_three_tank_system(adaptive_scenario(3));
  auto starved = plant::make_three_tank_system(adaptive_scenario(2));
  if (!system.ok() || !starved.ok()) return;
  const impl::Implementation& impl = *system->implementation;

  adapt::SelfHealingController healer(impl);
  const double static_u1 = whole_run_u1(impl, nullptr);
  const double healed_u1 = whole_run_u1(impl, &healer);
  std::printf("%-44s %s\n", "configuration (2000 periods, h1 dies at 20%)",
              "whole-run u1 reliability");
  std::printf("%-44s %.6f  (analysis post-kill: 0.970299)\n",
              "static scenario-1 mapping", static_u1);
  std::printf("%-44s %.6f  (re-analyzed: 0.980002)\n",
              "self-healing runtime", healed_u1);

  if (healer.repaired()) {
    std::printf("%s\n", healer.repairs().front().plan.describe().c_str());
  }
  const auto degraded = adapt::plan_repair(
      *starved->implementation, std::vector<arch::HostId>{0});
  if (degraded.ok()) {
    std::printf("2-host platform: %s\n", degraded->describe().c_str());
  }
}

void BM_PlanRepairGreedy(benchmark::State& state) {
  auto system = plant::make_three_tank_system(adaptive_scenario(3));
  for (auto _ : state) {
    auto plan = adapt::plan_repair(*system->implementation,
                                   std::vector<arch::HostId>{0});
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanRepairGreedy);

void BM_PlanRepairExhaustive(benchmark::State& state) {
  auto system = plant::make_three_tank_system(adaptive_scenario(3));
  adapt::RepairPolicy policy;
  policy.synthesis.strategy = synth::SynthesisOptions::Strategy::kExhaustive;
  policy.synthesis.max_replication_per_task = 2;
  for (auto _ : state) {
    auto plan = adapt::plan_repair(*system->implementation,
                                   std::vector<arch::HostId>{0}, policy);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanRepairExhaustive);

void BM_PlanRepairDegraded(benchmark::State& state) {
  auto system = plant::make_three_tank_system(adaptive_scenario(2));
  for (auto _ : state) {
    auto plan = adapt::plan_repair(*system->implementation,
                                   std::vector<arch::HostId>{0});
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanRepairDegraded);

/// Simulation with no monitor / observe-only / full self-healing — the
/// per-tick price of the adaptive hooks.
void BM_SimulateMonitored(benchmark::State& state) {
  auto system = plant::make_three_tank_system(adaptive_scenario(3));
  const int mode = static_cast<int>(state.range(0));
  for (auto _ : state) {
    adapt::SelfHealingOptions options;
    options.enable_repair = mode == 2;
    adapt::SelfHealingController controller(*system->implementation,
                                            options);
    sim::NullEnvironment env;
    sim::SimulationOptions run = unplug_options(200);
    run.monitor = mode == 0 ? nullptr : &controller;
    auto result = sim::simulate(*system->implementation, env, run);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SimulateMonitored)->Arg(0)->Arg(1)->Arg(2);

void BM_RecoveryCampaign(benchmark::State& state) {
  auto system = plant::make_three_tank_system(adaptive_scenario(3));
  adapt::RecoveryValidationOptions options;
  options.monte_carlo.trials = 16;
  options.monte_carlo.simulation = unplug_options(100);
  for (auto _ : state) {
    const adapt::RecoveryValidator validator(options);
    auto report = validator.run(*system->implementation);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_RecoveryCampaign);

}  // namespace

LRT_BENCH_MAIN(print_table)
