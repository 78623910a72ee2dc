// Transactional live update of the running three-tank system: splice a
// filter task into the tank-1 control path MID-RUN, without stopping the
// plant and without missing a single communicator update.
//
// Four parts, each a gate (the binary exits nonzero if any fails):
//  1. Committed splice: the running 3TS workload is live-updated to a
//     specification with a new `filter1` task between read1 and t1 (new
//     communicator f1, t1 retimed to read it). The task set changed, so
//     the verify stage re-synthesizes with every task outside the dirty
//     cone pinned to its running hosts; the swap installs at a period
//     boundary, survives probation, and commits — exactly one spec swap.
//  2. Zero missed updates: every communicator that persists across the
//     update commits exactly as many samples and updates as in a run that
//     never updated (the filter is a pass-through, so even u1's value
//     trace is bit-identical).
//  3. Engine bit-identity: the whole transaction replayed on the event
//     engine produces bit-identical traces, stats, and swap counts to the
//     tick engine.
//  4. Forced failure: a proposal whose spliced communicator carries an
//     unattainable LRC is rejected at the verify stage; the running
//     workload is never touched and the full value trace equals the
//     never-updated run's.
//
// Build & run:
//   ./build/examples/live_update [periods] [--engine tick|event]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "adapt/live_update.h"
#include "lrt/lrt.h"
#include "obs/session.h"
#include "plant/three_tank_system.h"
#include "support/argparse.h"

using namespace lrt;

namespace {

constexpr double kSetpoint1 = 0.40;
constexpr double kSetpoint2 = 0.30;

spec::Value control_law(double setpoint, const spec::Value& level) {
  const double command = plant::kThreeTankGain *
                         (setpoint - level.as_real());
  return spec::Value::real(command < 0.0 ? 0.0
                                         : (command > 1.0 ? 1.0 : command));
}

/// The 3TS specification (paper Fig. 2 timing), optionally with the
/// spliced tank-1 filter: filter1 reads (l1, 1) at 100 and writes the new
/// communicator (f1, 2) at 200; t1 then reads (f1, 2) instead of (l1, 1).
/// The hyperperiod stays 500, so the update is a pure splice.
spec::SpecificationConfig make_spec(bool with_filter, double filter_lrc) {
  spec::SpecificationConfig config;
  config.name = with_filter ? "three_tank_filtered" : "three_tank";
  const auto comm = [&config](const std::string& name, spec::Time period,
                              double lrc) {
    config.communicators.push_back(
        {name, spec::ValueType::kReal, spec::Value::real(0.0), period, lrc});
  };
  comm("s1", 500, 0.99);
  comm("s2", 500, 0.99);
  comm("l1", 100, 0.97);
  comm("l2", 100, 0.97);
  comm("u1", 100, 0.97);
  comm("u2", 100, 0.97);
  comm("r1", 500, 0.9);
  comm("r2", 500, 0.9);
  if (with_filter) comm("f1", 100, filter_lrc);

  for (const int tank : {1, 2}) {
    const std::string i = std::to_string(tank);
    spec::SpecificationConfig::TaskConfig read;
    read.name = "read" + i;
    read.inputs = {{"s" + i, 0}};
    read.outputs = {{"l" + i, 1}};
    read.model = spec::FailureModel::kParallel;
    read.function = [](std::span<const spec::Value> in) {
      return std::vector<spec::Value>{in[0]};
    };
    config.tasks.push_back(std::move(read));
  }
  if (with_filter) {
    spec::SpecificationConfig::TaskConfig filter;
    filter.name = "filter1";
    filter.inputs = {{"l1", 1}};
    filter.outputs = {{"f1", 2}};
    filter.model = spec::FailureModel::kSeries;
    // Pass-through: the splice must not change the control values, which
    // is what lets gate 2 demand a bit-identical u1 trace.
    filter.function = [](std::span<const spec::Value> in) {
      return std::vector<spec::Value>{in[0]};
    };
    config.tasks.push_back(std::move(filter));
  }
  for (const int tank : {1, 2}) {
    const std::string i = std::to_string(tank);
    const double setpoint = tank == 1 ? kSetpoint1 : kSetpoint2;
    spec::SpecificationConfig::TaskConfig control;
    control.name = "t" + i;
    control.inputs = {tank == 1 && with_filter
                          ? std::pair<std::string, std::int64_t>{"f1", 2}
                          : std::pair<std::string, std::int64_t>{"l" + i, 1}};
    control.outputs = {{"u" + i, 3}};
    control.model = spec::FailureModel::kSeries;
    control.function = [setpoint](std::span<const spec::Value> in) {
      return std::vector<spec::Value>{control_law(setpoint, in[0])};
    };
    config.tasks.push_back(std::move(control));
  }
  for (const int tank : {1, 2}) {
    const std::string i = std::to_string(tank);
    spec::SpecificationConfig::TaskConfig estimate;
    estimate.name = "estimate" + i;
    estimate.inputs = {{"l" + i, 1}, {"u" + i, 0}};
    estimate.outputs = {{"r" + i, 1}};
    estimate.model = spec::FailureModel::kSeries;
    estimate.function = [](std::span<const spec::Value> in) {
      return std::vector<spec::Value>{in[0]};
    };
    config.tasks.push_back(std::move(estimate));
  }
  return config;
}

arch::ArchitectureConfig make_arch() {
  arch::ArchitectureConfig config;
  config.name = "three_tank_arch";
  for (const std::string name : {"h1", "h2", "h3"}) {
    config.hosts.push_back({name, 0.99});
  }
  for (const std::string name : {"sensor1", "sensor2"}) {
    config.sensors.push_back({name, 0.99});
  }
  config.default_wcet = 10;
  config.default_wctt = 5;
  return config;
}

impl::ImplementationConfig make_mapping() {
  impl::ImplementationConfig config;
  config.name = "three_tank_impl";
  config.task_mappings.push_back({"t1", {"h1"}});
  config.task_mappings.push_back({"t2", {"h2"}});
  for (const std::string task :
       {"read1", "read2", "estimate1", "estimate2"}) {
    config.task_mappings.push_back({task, {"h3"}});
  }
  config.sensor_bindings = {{"s1", "sensor1"}, {"s2", "sensor2"}};
  return config;
}

/// Deterministic run options: faults off so every gate below is about the
/// swap mechanics, not sampling noise.
sim::SimulationOptions run_options(std::int64_t periods,
                                   sim::SimulationOptions::Engine engine) {
  sim::SimulationOptions options;
  options.engine = engine;
  options.periods = periods;
  options.faults.inject_invocation_faults = false;
  options.faults.inject_sensor_faults = false;
  options.actuator_comms = {"u1", "u2"};
  options.record_values_for = {"u1", "u2", "l2"};
  return options;
}

bool same_traces(const sim::SimulationResult& a,
                 const sim::SimulationResult& b) {
  if (a.value_traces.size() != b.value_traces.size()) return false;
  for (const auto& [name, trace] : a.value_traces) {
    const auto it = b.value_traces.find(name);
    if (it == b.value_traces.end() ||
        it->second.size() != trace.size()) {
      return false;
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (!(trace[i] == it->second[i])) return false;
    }
  }
  return true;
}

bool same_comm_stats(const sim::SimulationResult& a,
                     const sim::SimulationResult& b,
                     const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    const sim::CommStats* sa = a.find(name);
    const sim::CommStats* sb = b.find(name);
    if (sa == nullptr || sb == nullptr) return false;
    if (sa->samples != sb->samples || sa->updates != sb->updates ||
        sa->reliable_samples != sb->reliable_samples ||
        sa->reliable_updates != sb->reliable_updates) {
      return false;
    }
  }
  return true;
}

plant::ThreeTankEnvironment make_env() {
  return plant::ThreeTankEnvironment(plant::ThreeTankParams{}, kSetpoint1,
                                     kSetpoint2);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("live_update",
                   "transactional live update of the 3TS case study");
  parser.set_positional_usage("[periods]");
  std::string engine_name = "tick";
  parser.add_string("--engine", &engine_name,
                    "simulation engine for the story run: tick | event");
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
  const std::int64_t periods =
      args.size() > 0 ? std::atoll(args[0].c_str()) : 40;
  if (engine_name != "tick" && engine_name != "event") {
    std::fprintf(stderr, "unknown --engine '%s' (want tick | event)\n",
                 engine_name.c_str());
    return 2;
  }
  const auto story_engine = engine_name == "event"
                                ? sim::SimulationOptions::Engine::kEvent
                                : sim::SimulationOptions::Engine::kTick;
  const obs::ScopedSession session(obs_options);
  bool ok = true;

  auto workload = build_workload(make_spec(false, 0.97), make_arch());
  if (!workload.ok()) {
    std::printf("workload build error: %s\n",
                workload.status().to_string().c_str());
    return 1;
  }
  auto running = build_implementation(*workload, make_mapping());
  if (!running.ok()) {
    std::printf("implementation build error: %s\n",
                running.status().to_string().c_str());
    return 1;
  }
  const spec::Time hyper = workload->spec->hyperperiod();
  const spec::Time swap_at = periods / 2 * hyper;

  adapt::LiveUpdateOptions policy;
  policy.probation_periods = 3;
  policy.earliest_install = swap_at;

  // --- part 1: committed splice ---------------------------------------
  std::printf("--- live splice of filter1 at tick %lld (%s engine) ---\n",
              static_cast<long long>(swap_at), engine_name.c_str());
  const auto run_updated = [&](sim::SimulationOptions::Engine engine)
      -> Result<std::pair<sim::SimulationResult, adapt::UpdateReport>> {
    adapt::UpdateEngine update_engine(*running, policy);
    LRT_RETURN_IF_ERROR(update_engine.propose(0, make_spec(true, 0.97)));
    sim::SimulationOptions options = run_options(periods, engine);
    options.monitor = &update_engine;
    auto env = make_env();
    LRT_ASSIGN_OR_RETURN(sim::SimulationResult result,
                         sim::simulate(*running, env, options));
    return std::make_pair(std::move(result), update_engine.report());
  };
  auto story = run_updated(story_engine);
  if (!story.ok()) {
    std::printf("update run error: %s\n", story.status().to_string().c_str());
    return 1;
  }
  const adapt::UpdateReport& report = story->second;
  std::printf("%s", report.summary().c_str());
  ok = ok && report.state == adapt::UpdateState::kCommitted &&
       report.path == adapt::UpdatePath::kResynthesized &&
       report.installed_at == swap_at && story->first.spec_swaps == 1;
  if (story->first.spec_swaps != 1) {
    std::printf("expected exactly one spec swap, saw %lld\n",
                static_cast<long long>(story->first.spec_swaps));
  }

  // --- part 2: zero missed updates vs the never-updated run ------------
  std::printf("\n--- zero missed updates across the swap ---\n");
  auto baseline_env = make_env();
  const auto baseline = sim::simulate(
      *running, baseline_env, run_options(periods, story_engine));
  if (!baseline.ok()) {
    std::printf("baseline run error: %s\n",
                baseline.status().to_string().c_str());
    return 1;
  }
  const std::vector<std::string> persisting = {"s1", "s2", "l1", "l2",
                                               "u1", "u2", "r1", "r2"};
  const bool counts_ok = same_comm_stats(story->first, *baseline, persisting);
  const bool traces_ok = same_traces(story->first, *baseline);
  std::printf("persisting comm stats %s, value traces %s\n",
              counts_ok ? "identical" : "DIVERGED",
              traces_ok ? "bit-identical" : "DIVERGED");
  ok = ok && counts_ok && traces_ok;

  // --- part 3: tick vs event bit-identity ------------------------------
  std::printf("\n--- tick vs event engine ---\n");
  auto tick = run_updated(sim::SimulationOptions::Engine::kTick);
  auto event = run_updated(sim::SimulationOptions::Engine::kEvent);
  if (!tick.ok() || !event.ok()) {
    std::printf("engine comparison run error\n");
    return 1;
  }
  const bool engines_ok =
      tick->first.spec_swaps == event->first.spec_swaps &&
      tick->first.committed_updates == event->first.committed_updates &&
      tick->first.invocations == event->first.invocations &&
      same_comm_stats(tick->first, event->first, persisting) &&
      same_traces(tick->first, event->first) &&
      tick->second.installed_at == event->second.installed_at;
  std::printf("tick vs event: %s\n",
              engines_ok ? "bit-identical" : "DIVERGED");
  ok = ok && engines_ok;

  // --- part 4: forced verify failure is atomic -------------------------
  std::printf("\n--- forced failure: unattainable LRC on f1 ---\n");
  UpdateOptions facade_options;
  facade_options.update = policy;
  facade_options.run.simulation = run_options(periods, story_engine);
  auto rejected = update(*workload, *running, make_spec(true, 0.9999),
                         facade_options);
  if (!rejected.ok()) {
    std::printf("lrt::update error: %s\n",
                rejected.status().to_string().c_str());
    return 1;
  }
  std::printf("%s", rejected->summary().c_str());
  adapt::UpdateEngine reject_engine(*running, policy);
  if (const Status status =
          reject_engine.propose(0, make_spec(true, 0.9999));
      !status.ok()) {
    std::printf("propose error: %s\n", status.to_string().c_str());
    return 1;
  }
  sim::SimulationOptions reject_run = run_options(periods, story_engine);
  reject_run.monitor = &reject_engine;
  auto reject_env = make_env();
  const auto untouched = sim::simulate(*running, reject_env, reject_run);
  if (!untouched.ok()) {
    std::printf("rejected-proposal run error: %s\n",
                untouched.status().to_string().c_str());
    return 1;
  }
  const bool atomic = untouched->spec_swaps == 0 &&
                      same_traces(*untouched, *baseline) &&
                      same_comm_stats(*untouched, *baseline, persisting);
  std::printf("rejected at verify: %s; running workload untouched: %s\n",
              rejected->state == adapt::UpdateState::kRejected ? "yes" : "NO",
              atomic ? "yes (trace identical)" : "NO");
  ok = ok && rejected->state == adapt::UpdateState::kRejected && atomic;

  std::printf(ok ? "\nlive-update validation PASSED\n"
                 : "\nlive-update validation FAILED\n");
  return ok ? 0 : 1;
}
