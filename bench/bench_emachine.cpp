// E-machine vs direct runtime: instruction dispatch rate and the voting
// overhead of replication. The paper's code-generation change ("the output
// of each task is sent to all other hosts. Each host then performs a
// voting routine") costs broadcast + vote work per replica; this bench
// measures it as a function of the replication factor.
//
// Both front ends run on the tick engine's RuntimeCore, so their cost over
// it is front-end work only: E-code generation and the table check for
// the E-machine, parsing, compiling and mode selection for the
// mode-switching runtime. `--json <path>` writes those two ratios and the
// event engine's wall time over the tick engine's, each measured within
// one run (emachine_over_tick on the 3TS, switching_over_tick on
// examples/htl/mode_switching.htl, event_over_tick on the five
// examples/htl programs), gated in CI against
// baselines/BENCH_emachine.json.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "ecode/emachine.h"
#include "htl/compiler.h"
#include "htl/mode_runtime.h"
#include "plant/three_tank_system.h"
#include "sim/runtime.h"

namespace {

using namespace lrt;

struct ReplSystem {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

/// One sensor->task->out chain replicated on r of 4 hosts.
ReplSystem replicated(int r) {
  ReplSystem system;
  spec::SpecificationConfig config;
  config.name = "repl";
  config.communicators = {{"in", spec::ValueType::kReal,
                           spec::Value::real(0.0), 10, 0.5},
                          {"out", spec::ValueType::kReal,
                           spec::Value::real(0.0), 10, 0.5}};
  spec::SpecificationConfig::TaskConfig task;
  task.name = "t";
  task.inputs = {{"in", 0}};
  task.outputs = {{"out", 1}};
  config.tasks = {task};
  system.spec = std::make_unique<spec::Specification>(
      std::move(spec::Specification::Build(std::move(config))).value());

  arch::ArchitectureConfig arch_config;
  std::vector<std::string> hosts;
  for (int h = 0; h < 4; ++h) {
    arch_config.hosts.push_back({"h" + std::to_string(h), 0.99});
    if (h < r) hosts.push_back("h" + std::to_string(h));
  }
  arch_config.sensors = {{"s", 0.99}};
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {{"t", hosts}};
  impl_config.sensor_bindings = {{"in", "s"}};
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());
  return system;
}

// --- front-end cost over the tick engine ---

constexpr std::int64_t kRatioPeriods = 2000;
constexpr int kRatioRounds = 9;

template <typename Run>
double wall_ms(Run&& run) {
  const auto start = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Median over interleaved rounds of (front end wall / tick wall).
template <typename Front, typename Tick>
double median_ratio(Front&& front, Tick&& tick) {
  std::vector<double> ratios;
  for (int round = 0; round < kRatioRounds; ++round) {
    const double tick_ms = wall_ms(tick);
    ratios.push_back(wall_ms(front) / std::max(tick_ms, 1e-6));
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

struct FrontEndRatios {
  double emachine_over_tick = 0.0;
  double switching_over_tick = 0.0;
  bool emachine_identical = false;
  std::int64_t switches_taken = 0;
};

FrontEndRatios measure_front_ends() {
  FrontEndRatios ratios;
  sim::NullEnvironment env;

  auto tank = plant::make_three_tank_system({});
  sim::SimulationOptions options;
  options.periods = kRatioPeriods;
  options.actuator_comms = {"u1", "u2"};
  const impl::Implementation& impl = *tank->implementation;
  ratios.emachine_identical =
      sim::to_json(*ecode::run_emachine(impl, env, options)) ==
      sim::to_json(*sim::simulate(impl, env, options));
  ratios.emachine_over_tick = median_ratio(
      [&] { (void)ecode::run_emachine(impl, env, options); },
      [&] { (void)sim::simulate(impl, env, options); });

  std::ifstream in(LRT_EXAMPLES_HTL_DIR "/mode_switching.htl");
  std::stringstream text;
  text << in.rdbuf();
  const std::string source = text.str();
  // The detector raises `overload`, so the run really switches once.
  htl::FunctionRegistry functions;
  functions["sense"] = [](std::span<const spec::Value>) {
    return std::vector<spec::Value>{spec::Value::boolean(true)};
  };
  const auto compiled = htl::compile(source, functions);
  sim::SimulationOptions switching;
  switching.periods = kRatioPeriods;
  const auto once =
      htl::simulate_with_switching(source, functions, env, switching);
  ratios.switches_taken = once.ok() ? once->switches_taken : -1;
  ratios.switching_over_tick = median_ratio(
      [&] {
        (void)htl::simulate_with_switching(source, functions, env,
                                           switching);
      },
      [&] { (void)sim::simulate(*compiled->implementation, env, switching); });
  return ratios;
}

/// The event engine over the tick engine on dense grids: every
/// examples/htl program, where nearly every grid instant is a row.
double event_over_tick_dense() {
  sim::NullEnvironment env;
  std::vector<htl::CompiledSystem> systems;
  for (const char* name : {"abstract_control", "concrete_control", "cruise",
                           "mode_switching", "three_tank"}) {
    std::ifstream in(std::string(LRT_EXAMPLES_HTL_DIR "/") + name + ".htl");
    std::stringstream text;
    text << in.rdbuf();
    systems.push_back(std::move(htl::compile(text.str())).value());
  }
  const auto run_all = [&](sim::SimulationOptions::Engine engine) {
    sim::SimulationOptions options;
    options.engine = engine;
    options.periods = kRatioPeriods;
    for (const htl::CompiledSystem& system : systems) {
      (void)sim::simulate(*system.implementation, env, options);
    }
  };
  return median_ratio([&] { run_all(sim::SimulationOptions::Engine::kEvent); },
                      [&] { run_all(sim::SimulationOptions::Engine::kTick); });
}

bool write_json(const std::string& path) {
  const FrontEndRatios ratios = measure_front_ends();
  bench::JsonWriter json;
  json.text("benchmark", "emachine_front_ends");
  json.integer("periods", kRatioPeriods);
  json.integer("emachine_identical", ratios.emachine_identical ? 1 : 0);
  json.integer("switches_taken", ratios.switches_taken);
  json.number("emachine_over_tick", ratios.emachine_over_tick);
  json.number("switching_over_tick", ratios.switching_over_tick);
  json.number("event_over_tick", event_over_tick_dense());
  return json.write(path);
}

void BM_VotingOverhead(benchmark::State& state) {
  auto system = replicated(static_cast<int>(state.range(0)));
  sim::NullEnvironment env;
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.periods = 2000;
    auto result = ecode::run_emachine(*system.impl, env, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_VotingOverhead)->Arg(1)->Arg(2)->Arg(4);

void BM_EMachine3TS(benchmark::State& state) {
  auto system = plant::make_three_tank_system({});
  sim::NullEnvironment env;
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.periods = 2000;
    options.actuator_comms = {"u1", "u2"};
    auto result = ecode::run_emachine(*system->implementation, env, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EMachine3TS);

void BM_DirectRuntime3TS(benchmark::State& state) {
  auto system = plant::make_three_tank_system({});
  sim::NullEnvironment env;
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.periods = 2000;
    options.actuator_comms = {"u1", "u2"};
    auto result = sim::simulate(*system->implementation, env, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_DirectRuntime3TS);

void print_table() {
  bench::header("Runtime", "E-machine dispatch rate and voting overhead");
  std::printf("BM_VotingOverhead/r measures periods/second with the task "
              "replicated on r of 4 hosts;\nthe slowdown from r=1 to r=4 "
              "is the voting + broadcast cost of space redundancy.\n");
}

void print_ratios() {
  print_table();
  const FrontEndRatios ratios = measure_front_ends();
  std::printf("\nfront ends over the tick engine (%lld periods, median of "
              "%d interleaved rounds):\n",
              static_cast<long long>(kRatioPeriods), kRatioRounds);
  std::printf("  E-machine / tick   (3TS)               %.3fx  results %s\n",
              ratios.emachine_over_tick,
              ratios.emachine_identical ? "identical" : "DIVERGED");
  std::printf("  switching / tick   (mode_switching)    %.3fx  switches %lld\n",
              ratios.switching_over_tick,
              static_cast<long long>(ratios.switches_taken));
  std::printf("  event / tick       (examples/htl)      %.3fx\n",
              event_over_tick_dense());
}

}  // namespace

LRT_BENCH_MAIN_JSON(print_ratios, write_json)
