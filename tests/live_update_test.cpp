// Tests for src/adapt/live_update: the four-stage update transaction
// against a live 3TS runtime — dirty-cone diffing, the refinement fast
// path vs pinned re-synthesis, boundary installs, probation rollback, and
// verify-stage atomicity. Labeled `differential`: the committed splice is
// replayed on both engines and must be bit-identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapt/live_update.h"
#include "plant/three_tank_system.h"
#include "sim/runtime.h"

namespace lrt::adapt {
namespace {

constexpr double kSetpoint1 = 0.40;
constexpr double kSetpoint2 = 0.30;
constexpr spec::Time kHyper = 500;

spec::Value control_law(double setpoint, const spec::Value& level) {
  const double command =
      plant::kThreeTankGain * (setpoint - level.as_real());
  return spec::Value::real(command < 0.0 ? 0.0
                                         : (command > 1.0 ? 1.0 : command));
}

/// The 3TS specification, optionally with a pass-through `filter1` task
/// spliced between read1 and t1 (new communicator f1; t1 retimed to read
/// it). Mirrors examples/live_update.cpp.
spec::SpecificationConfig make_spec(bool with_filter, double filter_lrc,
                                    double lrc_controls = 0.97) {
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
  comm("u1", 100, lrc_controls);
  comm("u2", 100, lrc_controls);
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
                          : std::pair<std::string, std::int64_t>{"l" + i,
                                                                 1}};
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

/// Deterministic run: faults off, plant-driven values, both controls
/// actuated and traced.
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

void expect_same_traces(const sim::SimulationResult& a,
                        const sim::SimulationResult& b) {
  ASSERT_EQ(a.value_traces.size(), b.value_traces.size());
  for (const auto& [name, trace] : a.value_traces) {
    const auto it = b.value_traces.find(name);
    ASSERT_NE(it, b.value_traces.end()) << name;
    ASSERT_EQ(trace.size(), it->second.size()) << name;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_TRUE(trace[i] == it->second[i]) << name << "[" << i << "]";
    }
  }
}

void expect_same_comm_stats(const sim::SimulationResult& a,
                            const sim::SimulationResult& b,
                            const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    const sim::CommStats* sa = a.find(name);
    const sim::CommStats* sb = b.find(name);
    ASSERT_NE(sa, nullptr) << name;
    ASSERT_NE(sb, nullptr) << name;
    EXPECT_EQ(sa->samples, sb->samples) << name;
    EXPECT_EQ(sa->updates, sb->updates) << name;
    EXPECT_EQ(sa->reliable_samples, sb->reliable_samples) << name;
    EXPECT_EQ(sa->reliable_updates, sb->reliable_updates) << name;
  }
}

const std::vector<std::string> kPersisting = {"s1", "s2", "l1", "l2",
                                              "u1", "u2", "r1", "r2"};

struct Fixture {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

Fixture running_system() {
  Fixture f;
  f.spec = std::make_unique<spec::Specification>(
      std::move(spec::Specification::Build(make_spec(false, 0.97)))
          .value());
  f.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(make_arch())).value());
  f.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*f.spec, *f.arch,
                                            make_mapping()))
          .value());
  return f;
}

constexpr std::int64_t kPeriods = 16;
constexpr spec::Time kSwapAt = kPeriods / 2 * kHyper;

LiveUpdateOptions policy() {
  LiveUpdateOptions options;
  options.probation_periods = 3;
  options.earliest_install = kSwapAt;
  return options;
}

/// One full updated run: propose at 0, install at kSwapAt, run kPeriods.
Result<std::pair<sim::SimulationResult, UpdateReport>> run_updated(
    const Fixture& f, sim::SimulationOptions::Engine engine,
    double filter_lrc = 0.97) {
  UpdateEngine update_engine(*f.impl, policy());
  LRT_RETURN_IF_ERROR(update_engine.propose(0, make_spec(true, filter_lrc)));
  sim::SimulationOptions options = run_options(kPeriods, engine);
  options.monitor = &update_engine;
  plant::ThreeTankEnvironment env(plant::ThreeTankParams{}, kSetpoint1,
                                  kSetpoint2);
  LRT_ASSIGN_OR_RETURN(sim::SimulationResult result,
                       sim::simulate(*f.impl, env, options));
  return std::make_pair(std::move(result), update_engine.report());
}

sim::SimulationResult run_baseline(const Fixture& f,
                                   sim::SimulationOptions::Engine engine) {
  plant::ThreeTankEnvironment env(plant::ThreeTankParams{}, kSetpoint1,
                                  kSetpoint2);
  auto result = sim::simulate(*f.impl, env, run_options(kPeriods, engine));
  EXPECT_TRUE(result.ok()) << result.status();
  return *std::move(result);
}

TEST(LiveUpdate, CommittedSpliceInstallsAtBoundary) {
  const Fixture f = running_system();
  const auto story =
      run_updated(f, sim::SimulationOptions::Engine::kTick);
  ASSERT_TRUE(story.ok()) << story.status();
  const UpdateReport& report = story->second;
  EXPECT_EQ(report.state, UpdateState::kCommitted) << report.summary();
  EXPECT_EQ(report.path, UpdatePath::kResynthesized);
  EXPECT_EQ(report.proposed_at, 0);
  EXPECT_EQ(report.installed_at, kSwapAt);
  EXPECT_GE(report.resolved_at, kSwapAt);
  EXPECT_EQ(story->first.spec_swaps, 1);
  // The dirty cone: filter1 is new, t1 reads the new f1, and the LRC
  // change on nothing else — estimate1 is downstream of u1? No: u1 is
  // untouched, but t1's rewrite taints u1, whose reader estimate1 then
  // taints r1. Everything on tank 2 stays clean.
  EXPECT_EQ(report.dirty_tasks,
            (std::vector<std::string>{"estimate1", "filter1", "t1"}));
  EXPECT_EQ(report.dirty_comms,
            (std::vector<std::string>{"f1", "r1", "u1"}));
}

TEST(LiveUpdate, ZeroMissedUpdatesAcrossSwap) {
  // The filter is a pass-through, so a run that spliced it mid-flight
  // must commit exactly the same updates — and the same VALUES — as one
  // that never updated, for every persisting communicator.
  const Fixture f = running_system();
  const auto story =
      run_updated(f, sim::SimulationOptions::Engine::kTick);
  ASSERT_TRUE(story.ok()) << story.status();
  ASSERT_EQ(story->second.state, UpdateState::kCommitted);
  const sim::SimulationResult baseline =
      run_baseline(f, sim::SimulationOptions::Engine::kTick);
  expect_same_comm_stats(story->first, baseline, kPersisting);
  expect_same_traces(story->first, baseline);
}

TEST(LiveUpdate, TickEventBitIdentity) {
  // The whole transaction — install instant included — replayed on the
  // event engine must be bit-identical to the tick engine.
  const Fixture f = running_system();
  const auto tick = run_updated(f, sim::SimulationOptions::Engine::kTick);
  const auto event = run_updated(f, sim::SimulationOptions::Engine::kEvent);
  ASSERT_TRUE(tick.ok()) << tick.status();
  ASSERT_TRUE(event.ok()) << event.status();
  EXPECT_EQ(tick->second.installed_at, event->second.installed_at);
  EXPECT_EQ(tick->second.state, event->second.state);
  EXPECT_EQ(tick->first.spec_swaps, event->first.spec_swaps);
  EXPECT_EQ(tick->first.committed_updates, event->first.committed_updates);
  EXPECT_EQ(tick->first.invocations, event->first.invocations);
  EXPECT_EQ(tick->first.deadline_misses, event->first.deadline_misses);
  expect_same_comm_stats(tick->first, event->first, kPersisting);
  expect_same_traces(tick->first, event->first);
}

TEST(LiveUpdate, RejectedProposalLeavesRuntimeUntouched) {
  // f1 at LRC 0.9999 is unattainable on 0.99 hosts: verify must reject,
  // and the run must be indistinguishable from one that never proposed.
  const Fixture f = running_system();
  for (const auto engine : {sim::SimulationOptions::Engine::kTick,
                            sim::SimulationOptions::Engine::kEvent}) {
    const auto story = run_updated(f, engine, /*filter_lrc=*/0.9999);
    ASSERT_TRUE(story.ok()) << story.status();
    const UpdateReport& report = story->second;
    EXPECT_EQ(report.state, UpdateState::kRejected) << report.summary();
    EXPECT_NE(report.detail.find("re-synthesis failed"), std::string::npos)
        << report.detail;
    EXPECT_EQ(report.installed_at, -1);
    EXPECT_EQ(story->first.spec_swaps, 0);
    const sim::SimulationResult baseline = run_baseline(f, engine);
    expect_same_comm_stats(story->first, baseline, kPersisting);
    expect_same_traces(story->first, baseline);
  }
}

TEST(LiveUpdate, RefinementFastPathSkipsSynthesis) {
  // Same task set, lower LRC demand on the controls: the carried mapping
  // refines the running one (identity kappa), so verify stages it with
  // zero search and the update still installs and commits.
  const Fixture f = running_system();
  UpdateEngine engine(*f.impl, policy());
  ASSERT_TRUE(engine
                  .propose(0, make_spec(false, 0.97,
                                        /*lrc_controls=*/0.9))
                  .ok());
  EXPECT_EQ(engine.state(), UpdateState::kStaged);
  EXPECT_EQ(engine.report().path, UpdatePath::kRefined);
  EXPECT_TRUE(engine.report().refinement.refines)
      << engine.report().refinement.summary();

  sim::SimulationOptions options =
      run_options(kPeriods, sim::SimulationOptions::Engine::kTick);
  options.monitor = &engine;
  plant::ThreeTankEnvironment env(plant::ThreeTankParams{}, kSetpoint1,
                                  kSetpoint2);
  const auto result = sim::simulate(*f.impl, env, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(engine.state(), UpdateState::kCommitted);
  EXPECT_EQ(engine.report().installed_at, kSwapAt);
  EXPECT_EQ(result->spec_swaps, 1);
}

TEST(LiveUpdate, ProbationRollbackRestoresPriorWorkload) {
  // Drive the monitor interface by hand: install the splice, then report
  // enough failed f1 updates to statistically violate its LRC inside the
  // probation window. The next update point must atomically restore the
  // prior workload.
  const Fixture f = running_system();
  LiveUpdateOptions options = policy();
  options.earliest_install = 0;
  options.lrc.window = 20;
  options.lrc.min_updates = 10;
  UpdateEngine engine(*f.impl, options);
  ASSERT_TRUE(engine.propose(0, make_spec(true, 0.97)).ok());
  ASSERT_EQ(engine.state(), UpdateState::kStaged);

  const impl::Implementation* staged = engine.on_update_point(kHyper);
  ASSERT_NE(staged, nullptr);
  EXPECT_NE(staged, f.impl.get());
  EXPECT_EQ(staged, &engine.active());
  EXPECT_EQ(engine.state(), UpdateState::kProbation);
  EXPECT_EQ(engine.report().installed_at, kHyper);

  const auto f1 = staged->specification().find_communicator("f1");
  ASSERT_TRUE(f1.has_value());
  for (int i = 0; i < 12; ++i) {
    engine.on_update(kHyper + 100 * (i + 1), *f1, false, 0);
  }
  const impl::Implementation* restored = engine.on_update_point(2 * kHyper);
  EXPECT_EQ(restored, f.impl.get());
  EXPECT_EQ(&engine.active(), f.impl.get());
  EXPECT_EQ(engine.state(), UpdateState::kRolledBack);
  EXPECT_EQ(engine.report().resolved_at, 2 * kHyper);
  EXPECT_NE(engine.report().detail.find("probation: LRC of 'f1'"),
            std::string::npos)
      << engine.report().detail;
  // The transaction is spent: no further swaps come out of this engine.
  EXPECT_EQ(engine.on_update_point(3 * kHyper), nullptr);
}

TEST(LiveUpdate, ProbationSurvivalCommits) {
  // The mirror image: a probation window with healthy updates commits at
  // the first update point past probation_ends_.
  const Fixture f = running_system();
  LiveUpdateOptions options = policy();
  options.earliest_install = 0;
  options.probation_periods = 2;
  UpdateEngine engine(*f.impl, options);
  ASSERT_TRUE(engine.propose(0, make_spec(true, 0.97)).ok());
  const impl::Implementation* staged = engine.on_update_point(kHyper);
  ASSERT_NE(staged, nullptr);
  const auto f1 = staged->specification().find_communicator("f1");
  ASSERT_TRUE(f1.has_value());
  for (int i = 0; i < 10; ++i) {
    engine.on_update(kHyper + 100 * (i + 1), *f1, true, 1);
  }
  EXPECT_EQ(engine.on_update_point(2 * kHyper), nullptr);
  EXPECT_EQ(engine.state(), UpdateState::kProbation);
  EXPECT_EQ(engine.on_update_point(3 * kHyper), nullptr);
  EXPECT_EQ(engine.state(), UpdateState::kCommitted);
  EXPECT_EQ(engine.report().resolved_at, 3 * kHyper);
  EXPECT_EQ(&engine.active(), staged);
}

TEST(LiveUpdate, EarliestInstallDefersTheSwap) {
  const Fixture f = running_system();
  UpdateEngine engine(*f.impl, policy());  // earliest_install = kSwapAt
  ASSERT_TRUE(engine.propose(0, make_spec(true, 0.97)).ok());
  EXPECT_EQ(engine.on_update_point(kHyper), nullptr);
  EXPECT_EQ(engine.state(), UpdateState::kStaged);
  EXPECT_NE(engine.on_update_point(kSwapAt), nullptr);
}

TEST(LiveUpdate, SecondProposeWhileInFlightFails) {
  const Fixture f = running_system();
  UpdateEngine engine(*f.impl, policy());
  ASSERT_TRUE(engine.propose(0, make_spec(true, 0.97)).ok());
  const Status again = engine.propose(100, make_spec(true, 0.97));
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(again.message().find("already in flight"), std::string::npos)
      << again;
}

TEST(LiveUpdate, MalformedProposalRejectsWithoutStaging) {
  const Fixture f = running_system();
  UpdateEngine engine(*f.impl, policy());
  spec::SpecificationConfig broken = make_spec(true, 0.97);
  broken.tasks[2].outputs = {{"no_such_comm", 2}};
  ASSERT_TRUE(engine.propose(0, std::move(broken)).ok());
  EXPECT_EQ(engine.state(), UpdateState::kRejected);
  EXPECT_NE(engine.report().detail.find(
                "proposed specification is malformed"),
            std::string::npos)
      << engine.report().detail;
  EXPECT_EQ(engine.on_update_point(kSwapAt), nullptr);
}

TEST(LiveUpdate, ResynthesisPinsTheCleanRegion) {
  // Every task outside the dirty cone must keep its running hosts in the
  // staged mapping — the search only had the cone as a degree of freedom.
  const Fixture f = running_system();
  LiveUpdateOptions options = policy();
  options.earliest_install = 0;
  UpdateEngine engine(*f.impl, options);
  ASSERT_TRUE(engine.propose(0, make_spec(true, 0.97)).ok());
  ASSERT_EQ(engine.state(), UpdateState::kStaged);
  const impl::Implementation* staged = engine.on_update_point(kHyper);
  ASSERT_NE(staged, nullptr);
  const spec::Specification& to = staged->specification();
  const spec::Specification& from = f.impl->specification();
  for (const std::string clean :
       {"read1", "read2", "t2", "estimate2"}) {
    const auto t_new = to.find_task(clean);
    const auto t_old = from.find_task(clean);
    ASSERT_TRUE(t_new.has_value() && t_old.has_value()) << clean;
    EXPECT_EQ(staged->hosts_for(*t_new), f.impl->hosts_for(*t_old))
        << clean;
  }
}

TEST(LiveUpdate, UnsatisfiablePinsWidenToAGlobalSearch) {
  // f1 at LRC 0.985 needs l1 above 0.9801, the 0.99 sensor times read1's
  // single 0.99 host. read1 is upstream of the dirty cone, so pinned to
  // h3 it leaves the cone unsatisfiable; with every pin released, read1
  // replicates and f1 holds.
  const Fixture f = running_system();
  LiveUpdateOptions options = policy();
  options.earliest_install = 0;
  UpdateEngine engine(*f.impl, options);
  ASSERT_TRUE(engine.propose(0, make_spec(true, 0.985)).ok());
  ASSERT_EQ(engine.state(), UpdateState::kStaged)
      << engine.report().summary();
  EXPECT_EQ(engine.report().path, UpdatePath::kResynthesized);
  EXPECT_EQ(engine.report().dirty_tasks,
            (std::vector<std::string>{"estimate1", "filter1", "t1"}));
  const impl::Implementation* staged = engine.on_update_point(kHyper);
  ASSERT_NE(staged, nullptr);
  const auto t_new = staged->specification().find_task("read1");
  const auto t_old = f.impl->specification().find_task("read1");
  ASSERT_TRUE(t_new.has_value() && t_old.has_value());
  EXPECT_NE(staged->hosts_for(*t_new), f.impl->hosts_for(*t_old));
}

}  // namespace
}  // namespace lrt::adapt
