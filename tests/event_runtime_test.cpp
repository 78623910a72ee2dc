// Differential oracle for the event engine (ctest label `differential`):
// Engine::kEvent must be bit-identical to Engine::kTick — results, value
// traces, monitor callback sequences, RNG-driven fault outcomes, obs
// counters — on randomized workloads, fault plans (including off-grid
// scripted host events, also pending across a live update that changes
// the grid step), host-disjoint multi-group pipelines, timed execution,
// mid-run remaps, the adapt self-healing path, the Monte Carlo
// runner at several thread counts, and the lrt:: facade. A mismatch writes
// des-mismatch-<seed>.json next to the binary so CI can upload the failing
// workload spec as an artifact.
#include <cstdint>
#include <fstream>
#include <memory>
#include <regex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/self_healing.h"
#include "gen/workload.h"
#include "lrt/lrt.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "plant/three_tank_system.h"
#include "sim/monte_carlo.h"
#include "sim/runtime.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lrt::sim {
namespace {

using spec::Time;
using Engine = SimulationOptions::Engine;

// --- oracle plumbing ---

/// One recorded RuntimeMonitor callback; the engines must produce the
/// exact same sequence (the adapt layer's entire view of a run).
struct Callback {
  int kind = 0;  ///< 0 invocation, 1 sensor, 2 update, 3 boundary
  Time now = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  friend bool operator==(const Callback&, const Callback&) = default;
};

class RecordingMonitor : public RuntimeMonitor {
 public:
  void on_invocation(Time now, spec::TaskId task, arch::HostId host,
                     bool success) override {
    calls.push_back({0, now, task, host, success ? 1 : 0});
  }
  void on_sensor_update(Time now, spec::CommId comm, arch::SensorId sensor,
                        bool reliable) override {
    calls.push_back({1, now, comm, sensor, reliable ? 1 : 0});
  }
  void on_update(Time now, spec::CommId comm, bool reliable,
                 int contributors) override {
    calls.push_back({2, now, comm, reliable ? 1 : 0, contributors});
  }
  const impl::Implementation* on_period_boundary(Time now) override {
    calls.push_back({3, now, 0, 0, 0});
    return nullptr;
  }

  std::vector<Callback> calls;
};

/// Field-by-field equality, exact on doubles: the engines run the same
/// arithmetic in the same order, so even rounding must agree.
void expect_identical(const SimulationResult& tick,
                      const SimulationResult& event) {
  EXPECT_EQ(tick.periods, event.periods);
  EXPECT_EQ(tick.ticks, event.ticks);
  EXPECT_EQ(tick.invocations, event.invocations);
  EXPECT_EQ(tick.invocation_failures, event.invocation_failures);
  EXPECT_EQ(tick.committed_updates, event.committed_updates);
  EXPECT_EQ(tick.vote_divergences, event.vote_divergences);
  EXPECT_EQ(tick.deadline_misses, event.deadline_misses);
  EXPECT_EQ(tick.remaps_installed, event.remaps_installed);
  ASSERT_EQ(tick.comm_stats.size(), event.comm_stats.size());
  for (std::size_t c = 0; c < tick.comm_stats.size(); ++c) {
    const CommStats& ts = tick.comm_stats[c];
    const CommStats& es = event.comm_stats[c];
    EXPECT_EQ(ts.name, es.name);
    EXPECT_EQ(ts.samples, es.samples) << ts.name;
    EXPECT_EQ(ts.reliable_samples, es.reliable_samples) << ts.name;
    EXPECT_EQ(ts.limit_average, es.limit_average) << ts.name;
    EXPECT_EQ(ts.updates, es.updates) << ts.name;
    EXPECT_EQ(ts.reliable_updates, es.reliable_updates) << ts.name;
  }
  ASSERT_EQ(tick.value_traces.size(), event.value_traces.size());
  for (const auto& [name, trace] : tick.value_traces) {
    const auto it = event.value_traces.find(name);
    ASSERT_NE(it, event.value_traces.end()) << name;
    EXPECT_EQ(trace, it->second) << name;
  }
}

/// Runs the same configuration on both engines with fresh recording
/// monitors and checks everything matched. On a mismatch, dumps the
/// failing configuration for the CI artifact.
void expect_engines_agree(const impl::Implementation& impl,
                          Environment& tick_env, Environment& event_env,
                          SimulationOptions options, std::uint64_t seed,
                          const std::string& what) {
  RecordingMonitor tick_monitor;
  options.engine = Engine::kTick;
  options.monitor = &tick_monitor;
  const auto tick = simulate(impl, tick_env, options);
  ASSERT_TRUE(tick.ok()) << tick.status();

  RecordingMonitor event_monitor;
  options.engine = Engine::kEvent;
  options.monitor = &event_monitor;
  const auto event = simulate(impl, event_env, options);
  ASSERT_TRUE(event.ok()) << event.status();

  expect_identical(*tick, *event);
  EXPECT_EQ(tick_monitor.calls.size(), event_monitor.calls.size());
  EXPECT_TRUE(tick_monitor.calls == event_monitor.calls)
      << "monitor callback sequences diverged (" << what << ")";
  if (testing::Test::HasFailure()) {
    // Reproduction artifact: everything needed to replay the workload.
    std::ofstream artifact("des-mismatch-" + std::to_string(seed) + ".json");
    artifact << "{\"seed\": " << seed << ", \"what\": \"" << what
             << "\", \"periods\": " << options.periods
             << ", \"broadcast_reliability\": "
             << options.broadcast_reliability
             << ", \"model_execution_time\": "
             << (options.model_execution_time ? "true" : "false")
             << ", \"faults_seed\": " << options.faults.seed
             << ", \"tick\": " << to_json(*tick)
             << ", \"event\": " << to_json(*event) << "}\n";
  }
}

/// A fault plan exercising the RNG (every invocation and sensor draw) and
/// scripted availability flips, including instants off the harmonic grid.
SimulationOptions faulty_options(std::uint64_t seed, Time horizon_hint) {
  SimulationOptions options;
  options.periods = 40;
  options.broadcast_reliability = 0.9;
  options.faults.seed = seed * 7919 + 1;
  options.faults.host_events.push_back(
      {.time = horizon_hint / 3 + 1, .host = 0, .up = false});
  options.faults.host_events.push_back(
      {.time = 2 * horizon_hint / 3 + 1, .host = 0, .up = true});
  return options;
}

/// G host-disjoint pipeline groups with one-directional data edges:
///   group g:  sens -> g_c0 -> t1 -> g_c1 -> t2 -> g_c2
///   bridge g (g>0): reads (g-1)_c2 and the foreign sensor (g-1)_c0,
///                   writes g_c3.
/// Every group's tasks are replicated on the group's private host pair,
/// so voting stays intra-group while data crosses groups: a
/// multi-component pipeline whose components share no host.
test::System multi_group_system(int groups) {
  const Time period = 10;
  auto cname = [](int g, int k) {
    return "g" + std::to_string(g) + "_c" + std::to_string(k);
  };
  auto tname = [](int g, const char* role) {
    return "g" + std::to_string(g) + "_" + role;
  };
  spec::SpecificationConfig config;
  config.name = "multigroup";
  for (int g = 0; g < groups; ++g) {
    for (int k = 0; k <= 2; ++k) {
      config.communicators.push_back(test::comm(cname(g, k), period, 0.3));
    }
    if (g > 0) {
      config.communicators.push_back(test::comm(cname(g, 3), period, 0.3));
    }
    config.tasks.push_back(
        test::task(tname(g, "t1"), {{cname(g, 0), 0}}, {{cname(g, 1), 1}}));
    config.tasks.push_back(
        test::task(tname(g, "t2"), {{cname(g, 1), 1}}, {{cname(g, 2), 2}}));
    if (g > 0) {
      config.tasks.push_back(
          test::task(tname(g, "bridge"),
                     {{cname(g - 1, 2), 2}, {cname(g - 1, 0), 2}},
                     {{cname(g, 3), 3}}));
    }
  }

  test::System system;
  system.spec =
      std::make_unique<spec::Specification>(test::build_spec(config));

  arch::ArchitectureConfig arch_config;
  for (int g = 0; g < groups; ++g) {
    arch_config.hosts.push_back({"h" + std::to_string(2 * g), 0.9});
    arch_config.hosts.push_back({"h" + std::to_string(2 * g + 1), 0.9});
  }
  impl::ImplementationConfig impl_config;
  for (int g = 0; g < groups; ++g) {
    const std::vector<std::string> pair = {"h" + std::to_string(2 * g),
                                           "h" + std::to_string(2 * g + 1)};
    impl_config.task_mappings.push_back({tname(g, "t1"), pair});
    impl_config.task_mappings.push_back({tname(g, "t2"), pair});
    if (g > 0) impl_config.task_mappings.push_back({tname(g, "bridge"), pair});
    arch_config.sensors.push_back({"sens_" + cname(g, 0), 0.95});
    impl_config.sensor_bindings.push_back(
        {cname(g, 0), "sens_" + cname(g, 0)});
  }

  auto arch_result = arch::Architecture::Build(std::move(arch_config));
  EXPECT_TRUE(arch_result.ok()) << arch_result.status();
  system.arch =
      std::make_unique<arch::Architecture>(std::move(arch_result).value());
  auto impl_result = impl::Implementation::Build(*system.spec, *system.arch,
                                                 std::move(impl_config));
  EXPECT_TRUE(impl_result.ok()) << impl_result.status();
  system.impl =
      std::make_unique<impl::Implementation>(std::move(impl_result).value());
  return system;
}

/// A fault plan exercising every RNG site plus scripted availability
/// flips on each group's first host, deliberately off the harmonic grid.
SimulationOptions multi_group_options(std::uint64_t seed, int groups) {
  SimulationOptions options;
  options.periods = 40;
  options.broadcast_reliability = 0.9;
  options.faults.seed = seed * 7919 + 1;
  for (int g = 0; g < groups; ++g) {
    options.faults.host_events.push_back(
        {.time = 7 + 13 * g, .host = 2 * g, .up = false});
    options.faults.host_events.push_back(
        {.time = 203 + 17 * g, .host = 2 * g, .up = true});
  }
  return options;
}

// --- the differential suites ---

TEST(EventRuntimeDifferential, RandomizedWorkloads) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Xoshiro256 rng(seed);
    gen::WorkloadOptions shape;
    shape.with_functions = true;  // arithmetic values, not just bottom/ok
    shape.max_hosts = 3;
    auto workload = gen::random_workload(rng, shape);
    ASSERT_TRUE(workload.ok()) << workload.status();

    SimulationOptions options =
        faulty_options(seed, 40 * workload->specification->base_lcm());
    for (const auto& comm : workload->specification->communicators()) {
      options.record_values_for.push_back(comm.name);
    }
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*workload->implementation, tick_env, event_env,
                         options, seed, "random workload");
  }
}

TEST(EventRuntimeDifferential, TimedExecutionMode) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Xoshiro256 rng(seed);
    gen::WorkloadOptions shape;
    shape.wcet = 2 + static_cast<Time>(seed % 4);
    shape.wctt = 1 + static_cast<Time>(seed % 3);
    auto workload = gen::random_workload(rng, shape);
    ASSERT_TRUE(workload.ok()) << workload.status();

    SimulationOptions options =
        faulty_options(seed, 40 * workload->specification->base_lcm());
    options.model_execution_time = true;
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*workload->implementation, tick_env, event_env,
                         options, seed, "timed execution");
  }
}

TEST(EventRuntimeDifferential, MultiGroupPipeline) {
  const int kGroups = 3;
  test::System system = multi_group_system(kGroups);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SimulationOptions options = multi_group_options(seed, kGroups);
    for (const auto& comm : system.spec->communicators()) {
      options.record_values_for.push_back(comm.name);
    }
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*system.impl, tick_env, event_env, options, seed,
                         "multi-group pipeline");
  }
}

TEST(EventRuntimeDifferential, MultiGroupTimedExecution) {
  const int kGroups = 3;
  test::System system = multi_group_system(kGroups);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SimulationOptions options = multi_group_options(seed, kGroups);
    options.model_execution_time = true;
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*system.impl, tick_env, event_env, options, seed,
                         "timed groups");
  }
}

/// Varied communicator periods make the harmonic grid strictly finer than
/// any single period (gcd < min period), so the event engine actually
/// skips instants; scripted events intentionally land off the grid.
TEST(EventRuntimeDifferential, VariedPeriodChainWithOffGridHostEvents) {
  spec::SpecificationConfig config;
  config.name = "varied";
  config.communicators = {test::comm("c0", 6, 0.3), test::comm("c1", 4, 0.3),
                          test::comm("c2", 10, 0.3)};
  config.tasks = {test::task("task1", {{"c0", 1}}, {{"c1", 2}}),
                  test::task("task2", {{"c1", 1}}, {{"c2", 2}})};
  test::System system = test::single_host_system(std::move(config), 0.9, 0.9);

  SimulationOptions options;
  options.periods = 50;
  options.broadcast_reliability = 0.85;
  options.record_values_for = {"c0", "c1", "c2"};
  // Step is gcd(6,4,10) = 2; odd times sit between ticks.
  options.faults.host_events.push_back({.time = 7, .host = 0, .up = false});
  options.faults.host_events.push_back({.time = 13, .host = 0, .up = true});
  options.faults.host_events.push_back({.time = 121, .host = 0, .up = false});
  options.faults.host_events.push_back({.time = 240, .host = 0, .up = true});
  NullEnvironment tick_env;
  NullEnvironment event_env;
  expect_engines_agree(*system.impl, tick_env, event_env, options,
                       /*seed=*/601, "varied periods");
}

/// Swaps the running workload for `next` at the update point `at`.
class SwapAt final : public RecordingMonitor {
 public:
  SwapAt(const impl::Implementation& next, Time at) : next_(next), at_(at) {}
  const impl::Implementation* on_update_point(Time now) override {
    return now == at_ ? &next_ : nullptr;
  }

 private:
  const impl::Implementation& next_;
  Time at_;
};

TEST(EventRuntimeDifferential, HostEventsPendingAcrossAGridStepChange) {
  // Timed execution across a live update at t = 150 that moves the grid
  // from step 5 to step 4. The host events are scripted before the swap
  // and land off both grids; the tick engine applies them on the new one.
  // The kill at 192 freezes h0 at 194, while task2's job (released at
  // 186, WCET 7) still needs two ticks, and the restore at 195 comes at
  // 198, so the job misses its write instant. Rounded on the old grid,
  // both events would apply at 195 and the job would finish in time.
  const auto varied = [](std::string name, Time p0, Time p1, Time p2) {
    spec::SpecificationConfig config;
    config.name = std::move(name);
    config.communicators = {test::comm("c0", p0, 0.3),
                            test::comm("c1", p1, 0.3),
                            test::comm("c2", p2, 0.3)};
    config.tasks = {test::task("task1", {{"c0", 1}}, {{"c1", 2}}),
                    test::task("task2", {{"c1", 1}}, {{"c2", 1}})};
    return test::build_spec(std::move(config));
  };
  const spec::Specification coarse = varied("coarse", 10, 15, 30);
  const spec::Specification fine = varied("fine", 8, 12, 24);
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h0", 0.99}};
  arch_config.sensors = {{"s0", 0.99}};
  arch_config.default_wcet = 7;
  const auto arch = arch::Architecture::Build(std::move(arch_config));
  ASSERT_TRUE(arch.ok()) << arch.status();
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {{"task1", {"h0"}}, {"task2", {"h0"}}};
  impl_config.sensor_bindings = {{"c0", "s0"}};
  const auto coarse_impl =
      impl::Implementation::Build(coarse, *arch, impl_config);
  const auto fine_impl = impl::Implementation::Build(fine, *arch, impl_config);
  ASSERT_TRUE(coarse_impl.ok()) << coarse_impl.status();
  ASSERT_TRUE(fine_impl.ok()) << fine_impl.status();

  const auto run = [&](Engine engine) {
    SwapAt monitor(*fine_impl, 150);
    obs::MetricsRegistry metrics;
    obs::Sink sink(&metrics, nullptr);
    NullEnvironment env;
    SimulationOptions options;
    options.engine = engine;
    options.periods = 20;
    options.model_execution_time = true;
    options.record_values_for = {"c0", "c1", "c2"};
    options.faults.host_events = {{.time = 7, .host = 0, .up = false},
                                  {.time = 13, .host = 0, .up = true},
                                  {.time = 192, .host = 0, .up = false},
                                  {.time = 195, .host = 0, .up = true}};
    options.monitor = &monitor;
    options.sink = &sink;
    auto result = simulate(*coarse_impl, env, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::tuple(std::move(result).value(), std::move(monitor.calls),
                      metrics.snapshot());
  };
  const auto [tick, tick_calls, tick_metrics] = run(Engine::kTick);
  const auto [event, event_calls, event_metrics] = run(Engine::kEvent);
  expect_identical(tick, event);
  EXPECT_EQ(tick.spec_swaps, 1);
  EXPECT_EQ(event.spec_swaps, 1);
  EXPECT_GT(tick.deadline_misses, 0);
  EXPECT_TRUE(tick_calls == event_calls)
      << "monitor callback sequences diverged";
  for (const auto& [name, value] : tick_metrics.counters) {
    EXPECT_EQ(event_metrics.counter(name), value) << name;
  }
  // Visited plus skipped instants cover both grids: [0, 150) in steps of
  // 5, then [150, 600) in steps of 4.
  EXPECT_EQ(event_metrics.counter("sim.events") +
                event_metrics.counter("sim.ticks_skipped"),
            150 / 5 + (600 - 150 + 3) / 4);
}

TEST(EventRuntimeDifferential, ThreeTankClosedLoopEnvironment) {
  // A stateful plant: the environment integrates an ODE in advance() and
  // feeds sensors from it, so any divergence in instants visited or
  // actuator writes compounds. Metrics must also agree bit-for-bit.
  auto run = [](Engine engine) {
    auto system = plant::make_three_tank_system({});
    EXPECT_TRUE(system.ok()) << system.status();
    plant::ThreeTankEnvironment env({}, 0.4, 0.3);
    SimulationOptions options;
    options.engine = engine;
    options.periods = 40;
    options.actuator_comms = {"u1", "u2"};
    options.record_values_for = {"l1", "u1"};
    options.faults.host_events.push_back(
        {.time = 5'000, .host = 1, .up = false});
    auto result = simulate(*system->implementation, env, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::pair(std::move(result).value(), env.metrics());
  };
  const auto [tick, tick_metrics] = run(Engine::kTick);
  const auto [event, event_metrics] = run(Engine::kEvent);
  expect_identical(tick, event);
  EXPECT_EQ(tick_metrics.samples, event_metrics.samples);
  EXPECT_EQ(tick_metrics.rms_error1, event_metrics.rms_error1);
  EXPECT_EQ(tick_metrics.rms_error2, event_metrics.rms_error2);
  EXPECT_EQ(tick_metrics.max_error1, event_metrics.max_error1);
  EXPECT_EQ(tick_metrics.max_error2, event_metrics.max_error2);
}

TEST(EventRuntimeDifferential, MidRunRemapResynchronizesReleases) {
  // The self-healing controller detects the scripted kill and installs a
  // repair mid-run: the event engine must run the repaired mapping from
  // the same boundary the tick engine does.
  auto run = [](Engine engine, int host_count) {
    plant::ThreeTankScenario scenario;
    scenario.variant = plant::ThreeTankVariant::kReplicatedTasks;
    scenario.lrc_controls = 0.98;
    scenario.host_count = host_count;
    auto system = plant::make_three_tank_system(scenario);
    EXPECT_TRUE(system.ok()) << system.status();
    adapt::SelfHealingController controller(*system->implementation);
    NullEnvironment env;
    SimulationOptions options;
    options.engine = engine;
    options.periods = 200;
    options.actuator_comms = {"u1", "u2"};
    options.faults.host_events = {{.time = 20'000, .host = 0, .up = false}};
    options.monitor = &controller;
    auto result = simulate(*system->implementation, env, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::pair(std::move(result).value(),
                     controller.repairs().empty()
                         ? Time{-1}
                         : controller.repairs().front().committed_at);
  };
  // host_count 3: clean remap. host_count 2: capacity-starved platform,
  // where the repair degrades gracefully (exercises shedding paths).
  for (const int hosts : {3, 2}) {
    const auto [tick, tick_repair_at] = run(Engine::kTick, hosts);
    const auto [event, event_repair_at] = run(Engine::kEvent, hosts);
    expect_identical(tick, event);
    EXPECT_EQ(tick_repair_at, event_repair_at) << hosts << " hosts";
    EXPECT_GE(tick.remaps_installed, 1) << hosts << " hosts";
  }
}

TEST(EventRuntimeDifferential, SharedObsCountersAgree) {
  // Pooled "sim.*" counters must match across engines; the event engine
  // additionally reports its own sim.events / sim.ticks_skipped, and on
  // this sparse-ish workload it must actually skip instants.
  auto counters = [](Engine engine) {
    spec::SpecificationConfig config;
    config.name = "sparse";
    config.communicators = {test::comm("c0", 35, 0.3),
                            test::comm("c1", 50, 0.3)};
    config.tasks = {test::task("task1", {{"c0", 1}}, {{"c1", 2}})};
    test::System system = test::single_host_system(std::move(config));
    obs::MetricsRegistry metrics;
    obs::Sink sink(&metrics, nullptr);
    NullEnvironment env;
    SimulationOptions options;
    options.engine = engine;
    options.periods = 30;
    options.sink = &sink;
    EXPECT_TRUE(simulate(*system.impl, env, options).ok());
    return metrics.snapshot();
  };
  const obs::MetricsSnapshot tick = counters(Engine::kTick);
  const obs::MetricsSnapshot event = counters(Engine::kEvent);
  for (const auto& [name, value] : tick.counters) {
    EXPECT_EQ(event.counter(name), value) << name;
  }
  EXPECT_GT(event.counter("sim.events"), 0);
  // Step gcd(35, 50) = 5, hyperperiod 350: 70 grid ticks per period, but
  // only 10 + 7 + 1 activations — most instants must be skipped.
  EXPECT_GT(event.counter("sim.ticks_skipped"),
            event.counter("sim.events"));
  EXPECT_EQ(tick.counter("sim.events"), 0)
      << "tick engine emits no DES counters";
}

TEST(EventRuntimeDifferential, MonteCarloRunnerAcrossThreadCounts) {
  // The engine choice rides through MonteCarloOptions::simulation; every
  // (engine, threads) combination must produce one identical report.
  auto system = plant::make_three_tank_system({});
  ASSERT_TRUE(system.ok()) << system.status();
  auto report_json = [&](Engine engine, unsigned threads) {
    MonteCarloOptions options;
    options.simulation.engine = engine;
    options.simulation.periods = 20;
    options.simulation.actuator_comms = {"u1", "u2"};
    options.trials = 12;
    options.seed = 20260808;
    options.threads = threads;
    const auto report =
        MonteCarloRunner(options).run(*system->implementation);
    EXPECT_TRUE(report.ok()) << report.status();
    // Wall-clock timing (and the echoed thread count) are the only
    // legitimately varying fields.
    std::string json = to_json(*report);
    json = std::regex_replace(
        json,
        std::regex(
            "\"(elapsed_seconds|trials_per_second|threads)\":[0-9.eE+-]+"),
        "\"$1\":0");
    return json;
  };
  const std::string reference = report_json(Engine::kTick, 1);
  for (const unsigned threads : {1u, 2u, 8u}) {
    EXPECT_EQ(report_json(Engine::kEvent, threads), reference)
        << threads << " threads";
    EXPECT_EQ(report_json(Engine::kTick, threads), reference)
        << threads << " threads (tick determinism)";
  }
}

TEST(EventRuntimeDifferential, FacadeEnginePassthrough) {
  // lrt::simulate forwards SimulationOptions verbatim, so selecting the
  // event engine at the facade must hit the same code path.
  test::System system =
      test::single_host_system(test::chain_spec_config(2, 12, 0.4));
  const lrt::Workload workload =
      lrt::borrow_workload(*system.spec, *system.arch);
  lrt::SimulateOptions options;
  options.simulation.periods = 25;
  options.simulation.broadcast_reliability = 0.9;
  options.simulation.engine = Engine::kTick;
  const auto tick = lrt::simulate(workload, *system.impl, options);
  ASSERT_TRUE(tick.ok()) << tick.status();
  options.simulation.engine = Engine::kEvent;
  const auto event = lrt::simulate(workload, *system.impl, options);
  ASSERT_TRUE(event.ok()) << event.status();
  expect_identical(*tick, *event);
}

}  // namespace
}  // namespace lrt::sim
