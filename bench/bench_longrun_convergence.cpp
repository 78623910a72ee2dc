// E6 (paper Prop. 1): the strong-law-of-large-numbers argument. The
// probability-1 claim "limavg of the reliability-abstract trace >= mu_c"
// is backed by the empirical limit average converging to the analytical
// SRG as the trace grows. This bench sweeps trace lengths on the 3TS
// system through the parallel MonteCarloRunner — pooling independent
// trials per decade — and reports |empirical - analytic| plus the Wilson
// interval width for u1, followed by the engine's parallel scaling
// (trials/sec and speedup vs 1 thread).
//
// Long horizons are exactly where the simulation engine choice matters,
// so the bench also races Engine::kTick against Engine::kEvent on a
// sparse workload (coprime periods 999/1000 force a unit grid step, so
// ~999 of every 1000 ticks are idle), checks the results are identical,
// and reports horizon/core-second plus events/second. `--json <path>`
// writes the machine-readable summary gated in CI against
// baselines/BENCH_longrun.json.
//
// Benchmarks: Monte Carlo throughput by thread count, raw single-run
// simulation throughput on both engines.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "sim/monte_carlo.h"
#include "sim/runtime.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace {

using namespace lrt;

sim::MonteCarloOptions mc_options(std::int64_t trials, std::int64_t periods,
                                  unsigned threads) {
  sim::MonteCarloOptions options;
  options.trials = trials;
  options.simulation.periods = periods;
  options.simulation.actuator_comms = {"u1", "u2"};
  options.seed = kDefaultRngSeed;
  options.threads = threads;
  return options;
}

/// The harmonic grid step, derived ONCE per workload from the
/// communicator periods — and cross-checked against the step the
/// specification itself cached at Build time, so the bench's
/// horizon/core-second arithmetic can never drift from the grid the
/// engines actually run on.
spec::Time harmonic_step(const spec::Specification& specification) {
  std::vector<std::int64_t> periods;
  periods.reserve(specification.communicators().size());
  for (const auto& comm : specification.communicators()) {
    periods.push_back(comm.period);
  }
  const spec::Time step = gcd_all(periods);
  if (step != specification.base_period()) {
    std::fprintf(stderr,
                 "grid mismatch: gcd(periods) = %lld but spec caches %lld\n",
                 static_cast<long long>(step),
                 static_cast<long long>(specification.base_period()));
    std::abort();
  }
  return step;
}

// --- tick vs event engine on a sparse workload ---

struct SparseSystem {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

/// Coprime periods 999 and 1000: grid step 1, hyperperiod 999000, but
/// only ~2000 activation instants per period — the regime the DES core
/// exists for (a dense workload keeps both engines near parity).
SparseSystem make_sparse_system() {
  spec::SpecificationConfig config;
  config.name = "sparse_des";
  config.communicators.push_back(
      {"c0a", spec::ValueType::kReal, spec::Value::real(0.0), 999, 0.5});
  config.communicators.push_back(
      {"c0b", spec::ValueType::kReal, spec::Value::real(0.0), 1000, 0.5});
  spec::SpecificationConfig::TaskConfig task;
  task.name = "task0";
  task.inputs = {{"c0a", 1}};
  task.outputs = {{"c0b", 1}};
  config.tasks.push_back(std::move(task));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts.push_back({"h0", 0.99});
  arch_config.sensors.push_back({"s0", 0.99});
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings.push_back({"task0", {"h0"}});
  impl_config.sensor_bindings.push_back({"c0a", "s0"});

  SparseSystem system;
  system.spec = std::make_unique<spec::Specification>(
      std::move(spec::Specification::Build(std::move(config))).value());
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());
  return system;
}

constexpr std::int64_t kSparsePeriods = 20;

struct EngineRun {
  sim::SimulationResult result;
  double wall_ms = 0.0;
  std::int64_t events = 0;
  std::int64_t ticks_skipped = 0;
};

EngineRun run_engine(const impl::Implementation& impl,
                     sim::SimulationOptions::Engine engine) {
  obs::MetricsRegistry metrics;
  obs::Sink sink(&metrics, nullptr);
  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.engine = engine;
  options.periods = kSparsePeriods;
  options.sink = &sink;
  const auto start = std::chrono::steady_clock::now();
  auto result = sim::simulate(impl, env, options);
  const auto stop = std::chrono::steady_clock::now();
  if (!result.ok()) {
    std::fprintf(stderr, "simulate failed: %s\n",
                 result.status().to_string().c_str());
    std::abort();
  }
  const auto snapshot = metrics.snapshot();
  EngineRun run;
  run.result = std::move(result).value();
  run.wall_ms = std::chrono::duration<double, std::milli>(stop - start)
                    .count();
  run.events = snapshot.counter("sim.events");
  run.ticks_skipped = snapshot.counter("sim.ticks_skipped");
  return run;
}

struct EngineComparison {
  spec::Time horizon_ticks = 0;
  EngineRun tick;
  EngineRun event;
  bool identical = false;
};

EngineComparison compare_engines() {
  const SparseSystem system = make_sparse_system();
  const spec::Time step = harmonic_step(*system.spec);
  EngineComparison cmp;
  cmp.horizon_ticks = kSparsePeriods * system.spec->hyperperiod() / step;
  cmp.tick = run_engine(*system.impl, sim::SimulationOptions::Engine::kTick);
  cmp.event = run_engine(*system.impl,
                         sim::SimulationOptions::Engine::kEvent);
  cmp.identical =
      sim::to_json(cmp.tick.result) == sim::to_json(cmp.event.result);
  return cmp;
}

/// Simulated grid ticks covered per second of one core.
double horizon_per_core_second(const EngineComparison& cmp, double wall_ms) {
  return static_cast<double>(cmp.horizon_ticks) / (wall_ms / 1e3);
}

void print_table() {
  bench::header("E6 / Prop. 1",
                "SLLN: empirical limavg -> analytical SRG (3TS, comm u1)");

  auto system = plant::make_three_tank_system({});
  const auto srgs = reliability::compute_srgs(*system->implementation);
  const auto u1 = *system->specification->find_communicator("u1");
  const double analytic = (*srgs)[static_cast<std::size_t>(u1)];
  std::printf("analytical SRG lambda_u1 = %.8f\n\n", analytic);
  std::printf("%-10s %-8s %-14s %-12s %-12s %-12s\n", "periods", "trials",
              "empirical", "|error|", "ci width", "1/sqrt(n)");

  for (const std::int64_t periods :
       {100LL, 1'000LL, 10'000LL, 100'000LL}) {
    sim::MonteCarloRunner runner(mc_options(16, periods, 0));
    const auto report = runner.run(*system->implementation);
    const sim::CommAggregate* comm = report->find("u1");
    std::printf("%-10lld %-8lld %-14.6f %-12.6f %-12.6f %-12.6f\n",
                static_cast<long long>(periods),
                static_cast<long long>(report->trials), comm->empirical,
                std::fabs(comm->empirical - analytic),
                comm->interval.high - comm->interval.low,
                1.0 / std::sqrt(static_cast<double>(comm->updates)));
  }
  std::printf("\nexpected shape: error and interval width shrink like "
              "1/sqrt(pooled updates) (SLLN / CLT rate).\n");

  std::printf("\nparallel scaling (64 trials x 2000 periods):\n");
  std::printf("%-10s %-14s %-10s %-10s\n", "threads", "trials/s", "speedup",
              "identical");
  double base_rate = 0.0;
  std::int64_t reference = -1;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    sim::MonteCarloRunner runner(mc_options(64, 2'000, threads));
    const auto report = runner.run(*system->implementation);
    if (threads == 1u) {
      base_rate = report->trials_per_second;
      reference = report->find("u1")->reliable_updates;
    }
    std::printf("%-10u %-14.1f %-10.2f %-10s\n", threads,
                report->trials_per_second,
                base_rate > 0.0 ? report->trials_per_second / base_rate
                                : 0.0,
                report->find("u1")->reliable_updates == reference ? "yes"
                                                                  : "NO");
  }
  std::printf("(hardware_concurrency = %u; speedup saturates there)\n",
              std::thread::hardware_concurrency());

  const EngineComparison cmp = compare_engines();
  std::printf("\ntick vs event engine (sparse periods 999/1000, %lld "
              "periods, horizon %lld ticks):\n",
              static_cast<long long>(kSparsePeriods),
              static_cast<long long>(cmp.horizon_ticks));
  std::printf("%-8s %-12s %-18s %-12s %-14s\n", "engine", "wall ms",
              "horizon/core-s", "events", "ticks skipped");
  std::printf("%-8s %-12.2f %-18.3g %-12s %-14s\n", "tick", cmp.tick.wall_ms,
              horizon_per_core_second(cmp, cmp.tick.wall_ms), "-", "-");
  std::printf("%-8s %-12.2f %-18.3g %-12lld %-14lld\n", "event",
              cmp.event.wall_ms,
              horizon_per_core_second(cmp, cmp.event.wall_ms),
              static_cast<long long>(cmp.event.events),
              static_cast<long long>(cmp.event.ticks_skipped));
  std::printf("speedup %.1fx, results %s\n",
              cmp.tick.wall_ms / std::max(cmp.event.wall_ms, 1e-6),
              cmp.identical ? "identical" : "DIVERGED");
}

bool write_json(const std::string& path) {
  const EngineComparison cmp = compare_engines();
  bench::JsonWriter json;
  json.text("benchmark", "longrun_des_sparse");
  json.integer("periods", kSparsePeriods);
  json.integer("horizon_ticks", cmp.horizon_ticks);
  json.integer("identical", cmp.identical ? 1 : 0);
  json.integer("events", cmp.event.events);
  json.integer("ticks_skipped", cmp.event.ticks_skipped);
  json.number("tick_wall_ms", cmp.tick.wall_ms);
  json.number("event_wall_ms", cmp.event.wall_ms);
  json.number("speedup",
              cmp.tick.wall_ms / std::max(cmp.event.wall_ms, 1e-6));
  json.number("events_per_second",
              static_cast<double>(cmp.event.events) /
                  std::max(cmp.event.wall_ms / 1e3, 1e-9));
  json.number("tick_horizon_per_core_second",
              horizon_per_core_second(cmp, cmp.tick.wall_ms));
  json.number("event_horizon_per_core_second",
              horizon_per_core_second(cmp, cmp.event.wall_ms));
  return json.write(path);
}

void BM_MonteCarloThroughput(benchmark::State& state) {
  auto system = plant::make_three_tank_system({});
  const auto options =
      mc_options(16, 1'000, static_cast<unsigned>(state.range(0)));
  sim::MonteCarloRunner runner(options);
  for (auto _ : state) {
    auto report = runner.run(*system->implementation);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * options.trials);
}
BENCHMARK(BM_MonteCarloThroughput)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SimulationThroughput(benchmark::State& state) {
  auto system = plant::make_three_tank_system({});
  sim::NullEnvironment env;
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.periods = state.range(0);
    options.actuator_comms = {"u1", "u2"};
    auto result = sim::simulate(*system->implementation, env, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationThroughput)->Arg(1'000)->Arg(10'000);

void BM_SparseHorizonThroughput(benchmark::State& state) {
  const SparseSystem system = make_sparse_system();
  sim::NullEnvironment env;
  const auto engine =
      static_cast<sim::SimulationOptions::Engine>(state.range(0));
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.engine = engine;
    options.periods = 2;
    auto result = sim::simulate(*system.impl, env, options);
    benchmark::DoNotOptimize(result);
  }
  // Items = simulated grid ticks: the horizon/core-second metric.
  state.SetItemsProcessed(state.iterations() * 2 *
                          system.spec->hyperperiod());
}
BENCHMARK(BM_SparseHorizonThroughput)
    ->Arg(static_cast<int>(sim::SimulationOptions::Engine::kTick))
    ->Arg(static_cast<int>(sim::SimulationOptions::Engine::kEvent))
    ->Unit(benchmark::kMillisecond);

}  // namespace

LRT_BENCH_MAIN_JSON(print_table, write_json)
