// Differential oracle across the four runtimes on RuntimeCore (ctest label
// `differential`): the tick engine, the event engine, the E-machine on
// either engine, and — for programs whose switches never fire — the
// mode-switching runtime on either engine must agree bit for bit under
// fault injection: sensor and invocation faults, a lossy broadcast
// (reliability 0.9) and a scripted host kill/restore. The comparison
// covers sim::to_json, every value trace and every actuator write, on the
// five examples/htl programs and on generated workloads.
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ecode/emachine.h"
#include "gen/workload.h"
#include "htl/compiler.h"
#include "htl/mode_runtime.h"
#include "htl/printer.h"
#include "sim/runtime.h"
#include "support/rng.h"

namespace lrt {
namespace {

using Engine = sim::SimulationOptions::Engine;
using spec::Time;
using spec::Value;

/// Sensor readings that vary with time and communicator, so value traces
/// carry information; every actuator write is logged.
class LoggingEnvironment final : public sim::Environment {
 public:
  explicit LoggingEnvironment(const spec::Specification& spec)
      : spec_(spec) {}

  Value read_sensor(std::string_view comm, Time now) override {
    const auto id = spec_.find_communicator(comm);
    switch (spec_.communicator(*id).type) {
      case spec::ValueType::kBool:
        return Value::boolean(false);
      case spec::ValueType::kInt:
        return Value::integer(now % 13);
      case spec::ValueType::kReal:
        break;
    }
    return Value::real(static_cast<double>(now % 97) * 0.25 +
                       static_cast<double>(comm.size()));
  }
  void write_actuator(std::string_view comm, Time now,
                      const Value& value) override {
    writes.emplace_back(std::string(comm), now, value);
  }

  std::vector<std::tuple<std::string, Time, Value>> writes;

 private:
  const spec::Specification& spec_;
};

struct Run {
  sim::SimulationResult result;
  std::vector<std::tuple<std::string, Time, Value>> writes;
};

/// Faults everywhere: sensors, invocations, a 0.9 broadcast, and host 0
/// killed off-grid a third of the way in and restored at two thirds.
sim::SimulationOptions faulty_options(const spec::Specification& spec,
                                      std::uint64_t seed,
                                      std::int64_t periods) {
  sim::SimulationOptions options;
  options.periods = periods;
  options.faults.seed = seed;
  options.broadcast_reliability = 0.9;
  const Time horizon = spec.hyperperiod() * periods;
  options.faults.host_events = {{horizon / 3 + 1, 0, false},
                                {2 * horizon / 3 + 1, 0, true}};
  for (const auto& comm : spec.communicators()) {
    options.record_values_for.push_back(comm.name);
  }
  return options;
}

void expect_same(const Run& expected, const Run& actual,
                 const std::string& what) {
  EXPECT_EQ(sim::to_json(expected.result), sim::to_json(actual.result))
      << what;
  EXPECT_EQ(expected.result.value_traces, actual.result.value_traces)
      << what;
  EXPECT_EQ(expected.writes, actual.writes) << what;
}

/// Runs `impl` (compiled from `source`, when given, for the
/// mode-switching runtime) through every runtime and engine and checks
/// each against the tick engine.
void expect_runtimes_agree(const impl::Implementation& impl,
                           const std::string& source,
                           const htl::FunctionRegistry& functions,
                           const sim::SimulationOptions& base,
                           const std::string& what) {
  const spec::Specification& spec = impl.specification();
  const auto run_with = [&](Engine engine, auto&& runner) {
    sim::SimulationOptions options = base;
    options.engine = engine;
    LoggingEnvironment env(spec);
    Run run;
    run.result = runner(env, options);
    run.writes = std::move(env.writes);
    return run;
  };
  const auto direct = [&](sim::Environment& env,
                          const sim::SimulationOptions& options) {
    auto result = sim::simulate(impl, env, options);
    EXPECT_TRUE(result.ok()) << what << ": " << result.status();
    return result.ok() ? std::move(result).value() : sim::SimulationResult{};
  };
  const auto machine = [&](sim::Environment& env,
                           const sim::SimulationOptions& options) {
    auto result = ecode::run_emachine(impl, env, options);
    EXPECT_TRUE(result.ok()) << what << ": " << result.status();
    return result.ok() ? std::move(result).value() : sim::SimulationResult{};
  };
  const auto switching = [&](sim::Environment& env,
                             const sim::SimulationOptions& options) {
    auto result =
        htl::simulate_with_switching(source, functions, env, options);
    EXPECT_TRUE(result.ok()) << what << ": " << result.status();
    if (!result.ok()) return sim::SimulationResult{};
    EXPECT_EQ(result->switches_taken, 0) << what;
    return std::move(result->simulation);
  };

  const Run reference = run_with(Engine::kTick, direct);
  EXPECT_GT(reference.result.invocation_failures, 0) << what;
  expect_same(reference, run_with(Engine::kEvent, direct), what + " event");
  expect_same(reference, run_with(Engine::kTick, machine),
              what + " emachine/tick");
  expect_same(reference, run_with(Engine::kEvent, machine),
              what + " emachine/event");
  if (source.empty()) return;
  expect_same(reference, run_with(Engine::kTick, switching),
              what + " switching/tick");
  expect_same(reference, run_with(Engine::kEvent, switching),
              what + " switching/event");
}

std::string read_example(const std::string& name) {
  std::ifstream in(std::string(LRT_EXAMPLES_HTL_DIR) + "/" + name + ".htl");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(RuntimeDifferential, ExampleProgramsUnderFaults) {
  // Without task functions mode_switching.htl's detector writes `false`,
  // so every example runs fixed-mode and all six runs must agree.
  for (const std::string name :
       {"abstract_control", "concrete_control", "cruise", "mode_switching",
        "three_tank"}) {
    const std::string source = read_example(name);
    ASSERT_FALSE(source.empty()) << name;
    const auto system = htl::compile(source);
    ASSERT_TRUE(system.ok()) << name << ": " << system.status();
    for (const std::uint64_t seed : {3u, 17u}) {
      expect_runtimes_agree(
          *system->implementation, source, {},
          faulty_options(*system->specification, seed, 150),
          name + " seed " + std::to_string(seed));
    }
  }
}

/// The HTL program of a generated workload: one module whose single mode
/// invokes every task in specification order, so the compiled ids match.
htl::ProgramAst program_of(const gen::Workload& workload) {
  const spec::Specification& spec = *workload.specification;
  const arch::Architecture& arch = *workload.architecture;
  const impl::Implementation& impl = *workload.implementation;
  htl::ProgramAst program;
  program.name = "generated";
  for (const auto& comm : spec.communicators()) {
    program.communicators.push_back(
        {comm.name, comm.type, comm.init, comm.period, comm.lrc});
  }
  htl::ModuleAst module;
  module.name = "m";
  htl::ModeAst mode;
  mode.name = "main";
  mode.period = spec.hyperperiod();
  for (spec::TaskId t = 0; t < static_cast<spec::TaskId>(spec.tasks().size());
       ++t) {
    const spec::Task& task = spec.task(t);
    htl::TaskAst ast;
    ast.name = task.name;
    ast.model = task.model;
    ast.defaults = task.defaults;
    for (const spec::PortRef& port : task.inputs) {
      ast.inputs.push_back(
          {spec.communicator(port.comm).name, port.instance});
    }
    for (const spec::PortRef& port : task.outputs) {
      ast.outputs.push_back(
          {spec.communicator(port.comm).name, port.instance});
    }
    module.tasks.push_back(std::move(ast));
    mode.invokes.push_back(task.name);
  }
  module.modes.push_back(std::move(mode));
  module.start_mode = "main";
  program.modules.push_back(std::move(module));

  htl::ArchitectureAst architecture;
  for (const auto& host : arch.hosts()) {
    architecture.hosts.push_back({host.name, host.reliability});
  }
  for (const auto& sensor : arch.sensors()) {
    architecture.sensors.push_back({sensor.name, sensor.reliability});
  }
  architecture.metrics.push_back({"", "", 1, 1});
  program.architecture = std::move(architecture);

  htl::MappingAst mapping;
  for (spec::TaskId t = 0; t < static_cast<spec::TaskId>(spec.tasks().size());
       ++t) {
    htl::MapAst map;
    map.task = spec.task(t).name;
    map.retries = impl.reexecutions(t);
    for (const arch::HostId h : impl.hosts_for(t)) {
      map.hosts.push_back(arch.host(h).name);
    }
    mapping.maps.push_back(std::move(map));
  }
  for (const auto& [comm, sensor] :
       workload.implementation_config.sensor_bindings) {
    mapping.binds.push_back({comm, sensor});
  }
  program.mapping = std::move(mapping);
  return program;
}

TEST(RuntimeDifferential, GeneratedWorkloadsUnderFaults) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    gen::WorkloadOptions options;
    options.with_functions = true;
    options.max_hosts = 3;
    const auto workload = gen::random_workload(rng, options);
    ASSERT_TRUE(workload.ok()) << workload.status();
    const std::string source = htl::to_source(program_of(*workload));
    htl::FunctionRegistry functions;
    for (const spec::Task& task : workload->specification->tasks()) {
      functions[task.name] = task.function;
    }
    expect_runtimes_agree(
        *workload->implementation, source, functions,
        faulty_options(*workload->specification, seed * 11, 120),
        "generated seed " + std::to_string(seed));
  }
}

TEST(RuntimeDifferential, SwitchingRunsAgreeAcrossEngines) {
  // mode_switching.htl with a detector that raises `overload`: the
  // controller really switches, so the swap path runs on both engines.
  const std::string source = read_example("mode_switching");
  const auto system = htl::compile(source);
  ASSERT_TRUE(system.ok()) << system.status();
  htl::FunctionRegistry functions;
  functions["sense"] = [](std::span<const Value>) {
    return std::vector<Value>{Value::boolean(true)};
  };
  sim::SimulationOptions options =
      faulty_options(*system->specification, 5, 300);
  std::vector<htl::ModeSwitchingResult> results;
  std::vector<std::vector<std::tuple<std::string, Time, Value>>> writes;
  for (const Engine engine : {Engine::kTick, Engine::kEvent}) {
    options.engine = engine;
    LoggingEnvironment env(*system->specification);
    auto result =
        htl::simulate_with_switching(source, functions, env, options);
    ASSERT_TRUE(result.ok()) << result.status();
    results.push_back(std::move(result).value());
    writes.push_back(std::move(env.writes));
  }
  EXPECT_EQ(results[0].switches_taken, 1);
  EXPECT_EQ(results[0].simulation.spec_swaps, 1);
  EXPECT_EQ(results[0].switches_taken, results[1].switches_taken);
  EXPECT_EQ(results[0].mode_occupancy, results[1].mode_occupancy);
  EXPECT_EQ(sim::to_json(results[0].simulation),
            sim::to_json(results[1].simulation));
  EXPECT_EQ(results[0].simulation.value_traces,
            results[1].simulation.value_traces);
  EXPECT_EQ(writes[0], writes[1]);
}

}  // namespace
}  // namespace lrt
