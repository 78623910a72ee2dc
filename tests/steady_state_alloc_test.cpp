// Pins RuntimeCore's allocation-free steady state: once the first
// specification period has run, a run without value recording, task
// functions or tracing allocates nothing per instant, on either engine.
// The binary replaces the global operator new with a counting one, which
// is why this suite has a binary of its own.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "plant/three_tank_system.h"
#include "sim/runtime.h"
#include "sim/runtime_core.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

// GCC pairs the malloc below with the operator delete calls and warns;
// both sides are replaced together, so the pairing is sound.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// std::stable_sort's temporary buffer uses the nothrow form; it must
// allocate with malloc too, or the free below mismatches it under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lrt::sim {
namespace {

using spec::Time;

/// The 3TS with its task functions stripped: every task then writes
/// type-correct zeros, which the core produces without allocating.
struct Bare3TS {
  std::unique_ptr<plant::ThreeTankSystem> system;
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<impl::Implementation> impl;
};

Bare3TS bare_three_tank() {
  Bare3TS bare;
  auto system = plant::make_three_tank_system({});
  EXPECT_TRUE(system.ok()) << system.status();
  bare.system =
      std::make_unique<plant::ThreeTankSystem>(std::move(system).value());
  spec::SpecificationConfig config =
      bare.system->specification->to_config();
  for (auto& task : config.tasks) task.function = nullptr;
  bare.spec = std::make_unique<spec::Specification>(
      std::move(spec::Specification::Build(std::move(config))).value());
  bare.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(
                    *bare.spec, *bare.system->architecture,
                    bare.system->implementation->to_config()))
          .value());
  return bare;
}

SimulationOptions faulty_options() {
  SimulationOptions options;
  options.periods = 60;
  options.actuator_comms = {"u1", "u2"};
  options.broadcast_reliability = 0.9;
  options.faults.seed = 9;
  options.faults.host_events = {{20 * 500 + 7, 0, false},
                                {40 * 500 + 3, 0, true}};
  return options;
}

TEST(SteadyState, TickBodyAllocatesNothingAfterTheFirstPeriod) {
  const Bare3TS bare = bare_three_tank();
  const SimulationOptions options = faulty_options();
  NullEnvironment env;
  detail::RuntimeCore core({bare.impl.get(), 1}, env, options);
  ASSERT_TRUE(core.init().ok());
  Time now = 0;
  const auto run_until = [&](Time end) {
    for (; now < end; now += core.step()) {
      ASSERT_TRUE(core.tick(now).ok());
      core.advance_processors(now, now + core.step());
      core.advance_environment(now, now + core.step());
    }
  };
  run_until(core.hyperperiod());
  const std::int64_t before = g_allocations.load();
  run_until(core.duration());
  EXPECT_EQ(g_allocations.load() - before, 0);
  const SimulationResult result = core.finish();
  EXPECT_GT(result.invocation_failures, 0);
  EXPECT_GT(result.committed_updates, 0);
}

/// Samples the allocation counter at every period boundary.
class BoundaryProbe final : public RuntimeMonitor {
 public:
  const impl::Implementation* on_period_boundary(Time now) override {
    if (now == period_) first_ = g_allocations.load();
    last_ = g_allocations.load();
    return nullptr;
  }
  explicit BoundaryProbe(Time period) : period_(period) {}
  std::int64_t first_ = -1;
  std::int64_t last_ = -1;

 private:
  Time period_;
};

TEST(SteadyState, EnginesAddNoAllocationsToTheCore) {
  // Through sim::simulate: neither engine allocates between the first and
  // the last period boundary, host events included.
  const Bare3TS bare = bare_three_tank();
  for (const auto engine :
       {SimulationOptions::Engine::kTick, SimulationOptions::Engine::kEvent}) {
    SimulationOptions options = faulty_options();
    options.engine = engine;
    BoundaryProbe probe(bare.spec->hyperperiod());
    options.monitor = &probe;
    obs::MetricsRegistry metrics;
    obs::Sink sink(&metrics, nullptr);
    options.sink = &sink;
    NullEnvironment env;
    const auto result = simulate(*bare.impl, env, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_GE(probe.first_, 0);
    EXPECT_EQ(probe.last_, probe.first_);
  }
}

}  // namespace
}  // namespace lrt::sim
