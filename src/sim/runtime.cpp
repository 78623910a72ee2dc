#include "sim/runtime.h"

#include <algorithm>
#include <utility>

#include "sim/runtime_core.h"
#include "support/json.h"

namespace lrt::sim {
namespace {

using spec::Time;

/// The reference engine: visits every instant of the harmonic grid. Kept
/// deliberately naive — it IS the semantics the event engine is
/// differential-tested against. (tick() returns at once on an instant
/// that is neither an activation row nor a scripted host event.)
Status run_tick_engine(detail::RuntimeCore& core) {
  const Time duration = core.duration();
  // The step is re-read every iteration: a live update (monitor hot-swap)
  // may rebase the grid mid-run. The horizon is frozen at init.
  for (Time now = 0; now < duration; now += core.step()) {
    LRT_RETURN_IF_ERROR(core.tick(now));
    const Time next = std::min(now + core.step(), duration);
    core.advance_processors(now, next);
    core.advance_environment(now, next);
  }
  return Status::Ok();
}

/// The discrete-event engine: visits only the instants where tick() can do
/// work (RuntimeCore::next_instant()) and bridges each idle gap with one
/// processor window and one environment advance. It runs the same body
/// at a subset of the same instants, so every result, trace and RNG draw
/// is bit-identical to the tick engine's.
Status run_event_engine(detail::RuntimeCore& core) {
  const Time duration = core.duration();
  obs::Tracer* tracer = core.tracer();
  const std::int64_t run_start_us = tracer != nullptr ? tracer->now_us() : 0;
  std::int64_t instants = 0;
  // Skipped grid instants are summed per grid segment: a hot-swap may
  // change the step, so [grid_from, swap) counts on the outgoing grid.
  // (A swap lands on a grid instant, so one that keeps the step needs no
  // new segment.)
  std::int64_t grid_instants = 0;
  Time step = core.step();
  Time grid_from = 0;
  for (Time now = 0; now < duration;) {
    LRT_RETURN_IF_ERROR(core.tick(now));
    ++instants;
    if (core.step() != step) {
      grid_instants += (now - grid_from) / step;
      grid_from = now;
      step = core.step();
    }
    const Time next = std::min(core.next_instant(), duration);
    core.advance_processors(now, next);
    core.advance_environment(now, next);
    now = next;
  }
  if (tracer != nullptr) {
    tracer->complete("sim", "event", run_start_us, tracer->now_us(),
                     {{"instants", static_cast<double>(instants)}});
  }
  if (const obs::Sink* sink = core.sink(); sink != nullptr) {
    // The horizon need not be a multiple of the post-swap step, so the
    // last segment's tick count rounds up.
    grid_instants += (duration - grid_from + step - 1) / step;
    sink->counter_add("sim.events", instants);
    sink->counter_add("sim.ticks_skipped", grid_instants - instants);
  }
  return Status::Ok();
}

}  // namespace

std::string to_json(const SimulationResult& result) {
  JsonWriter json;
  json.begin_object();
  json.key("periods");
  json.value(result.periods);
  json.key("ticks");
  json.value(result.ticks);
  json.key("invocations");
  json.value(result.invocations);
  json.key("invocation_failures");
  json.value(result.invocation_failures);
  json.key("committed_updates");
  json.value(result.committed_updates);
  json.key("vote_divergences");
  json.value(result.vote_divergences);
  json.key("deadline_misses");
  json.value(result.deadline_misses);
  json.key("remaps_installed");
  json.value(result.remaps_installed);
  json.key("spec_swaps");
  json.value(result.spec_swaps);
  json.key("communicators");
  json.begin_array();
  for (const CommStats& stats : result.comm_stats) {
    const ConfidenceInterval ci = stats.update_rate_interval();
    json.begin_object();
    json.key("name");
    json.value(stats.name);
    json.key("limit_average");
    json.value(stats.limit_average);
    json.key("updates");
    json.value(stats.updates);
    json.key("reliable_updates");
    json.value(stats.reliable_updates);
    json.key("update_rate");
    json.value(stats.update_rate());
    json.key("ci_low");
    json.value(ci.low);
    json.key("ci_high");
    json.value(ci.high);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

const CommStats* SimulationResult::find(std::string_view name) const {
  for (const CommStats& stats : comm_stats) {
    if (stats.name == name) return &stats;
  }
  return nullptr;
}

Result<SimulationResult> simulate_time_dependent(
    std::span<const impl::Implementation> phases, Environment& env,
    const SimulationOptions& options) {
  if (phases.empty()) {
    return InvalidArgumentError("simulation needs >= 1 mapping phase");
  }
  for (const impl::Implementation& phase : phases) {
    if (&phase.specification() != &phases.front().specification() ||
        &phase.architecture() != &phases.front().architecture()) {
      return InvalidArgumentError(
          "all phases of a time-dependent implementation must share one "
          "specification and architecture");
    }
  }
  detail::RuntimeCore core(phases, env, options);
  LRT_RETURN_IF_ERROR(core.init());
  return detail::drive(core, options.engine);
}

Result<SimulationResult> simulate(const impl::Implementation& impl,
                                  Environment& env,
                                  const SimulationOptions& options) {
  return simulate_time_dependent({&impl, 1}, env, options);
}

}  // namespace lrt::sim

namespace lrt::sim::detail {

Result<SimulationResult> drive(RuntimeCore& core,
                               SimulationOptions::Engine engine) {
  switch (engine) {
    case SimulationOptions::Engine::kEvent:
      LRT_RETURN_IF_ERROR(run_event_engine(core));
      break;
    case SimulationOptions::Engine::kTick:
      LRT_RETURN_IF_ERROR(run_tick_engine(core));
      break;
  }
  return core.finish();
}

}  // namespace lrt::sim::detail
