// Additional depth tests across modules: edge cases and cross-checks not
// covered by the per-module suites.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "ecode/program.h"
#include "gen/workload.h"
#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "sched/timeline.h"
#include "sim/runtime.h"
#include "spec/spec_graph.h"
#include "tests/test_util.h"

namespace lrt {
namespace {

// --- streaming operators ---

TEST(Streams, ValueAndRationalAndStatus) {
  std::ostringstream out;
  out << spec::Value::real(1.5) << " " << spec::Value::bottom() << " "
      << InvalidArgumentError("x");
  EXPECT_EQ(out.str(), "1.5 \xE2\x8A\xA5 INVALID_ARGUMENT: x");
}

TEST(Streams, FailureModelNames) {
  EXPECT_EQ(spec::to_string(spec::FailureModel::kSeries), "series");
  EXPECT_EQ(spec::to_string(spec::FailureModel::kParallel), "parallel");
  EXPECT_EQ(spec::to_string(spec::FailureModel::kIndependent),
            "independent");
}

// --- specification edges ---

TEST(SpecEdge, OutputInstanceAtExactHyperperiodBoundary) {
  // Task writes instance 2 of a period-10 comm => write time 20 = pi_S.
  spec::SpecificationConfig config;
  config.communicators = {test::comm("in", 10), test::comm("out", 10)};
  config.tasks = {test::task("t", {{"in", 1}}, {{"out", 2}})};
  const auto spec = spec::Specification::Build(std::move(config));
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->hyperperiod(), 20);
  EXPECT_EQ(spec->write_time(0), 20);
  // And that boundary write commits at the start of the next period.
  auto system = test::single_host_system(
      [&] {
        spec::SpecificationConfig c;
        c.communicators = {test::comm("in", 10), test::comm("out", 10)};
        c.tasks = {test::task("t", {{"in", 1}}, {{"out", 2}})};
        return c;
      }(),
      1.0, 1.0);
  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.periods = 10;
  const auto result = sim::simulate(*system.impl, env, options);
  ASSERT_TRUE(result.ok());
  // 9 of the 10 boundary writes land inside the horizon.
  EXPECT_EQ(result->find("out")->updates, 9);
  EXPECT_EQ(result->find("out")->reliable_updates, 9);
}

TEST(SpecEdge, TaskReadingSameCommTwiceAtDifferentInstances) {
  spec::SpecificationConfig config;
  config.communicators = {test::comm("in", 5), test::comm("out", 5)};
  config.tasks = {test::task("t", {{"in", 0}, {"in", 2}}, {{"out", 3}})};
  const auto spec = spec::Specification::Build(std::move(config));
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->read_time(0), 10);
  EXPECT_EQ(spec->input_comm_set(0).size(), 1u);
  const auto& task = spec->task(0);
  EXPECT_EQ(task.inputs.size(), 2u);
  EXPECT_EQ(task.defaults.size(), 2u);
}

// --- scheduling edges ---

TEST(SchedEdge, IdleGapsBetweenStaggeredJobs) {
  // Two tasks with disjoint LETs leave an idle gap; EDF must idle, not
  // run early.
  spec::SpecificationConfig config;
  config.communicators = {test::comm("in", 10), test::comm("a", 10),
                          test::comm("b", 10)};
  config.tasks = {test::task("t1", {{"in", 0}}, {{"a", 1}}),
                  test::task("t2", {{"in", 2}}, {{"b", 3}})};
  auto system = test::single_host_system(std::move(config));
  const auto report = sched::analyze_schedulability(*system.impl);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->schedulable);
  const auto& slices = report->host_schedules[0].slices;
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].start, 0);
  EXPECT_EQ(slices[1].start, 20);  // waits for t2's release
}

TEST(SchedEdge, TimelineWidthClamped) {
  auto system = test::single_host_system(test::chain_spec_config(1));
  const auto report = sched::analyze_schedulability(*system.impl);
  const std::string tiny = sched::render_timeline(*report, *system.impl, 1);
  EXPECT_NE(tiny.find("h0 |"), std::string::npos);  // still renders
}

// --- e-code edges ---

TEST(EcodeEdge, LastBlockFutureWrapsToFirst) {
  auto system = plant::make_three_tank_system({});
  const auto program = ecode::generate_ecode(*system->implementation, 2);
  ASSERT_TRUE(program.ok());
  // The final future instruction targets the first block's address.
  const auto& code = program->code;
  int last_future = -1;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].op == ecode::Opcode::kFuture) {
      last_future = static_cast<int>(i);
    }
  }
  ASSERT_NE(last_future, -1);
  EXPECT_EQ(code[static_cast<std::size_t>(last_future)].arg1,
            program->blocks.front().second);
  // Its delta closes the period: last block time + delta = period + first.
  const auto last_block = program->blocks.back();
  EXPECT_EQ(last_block.first +
                code[static_cast<std::size_t>(last_future)].arg0,
            program->period + program->blocks.front().first);
}

// --- reliability edges ---

TEST(ReliabilityEdge, SinglePhaseTimeDependentEqualsStatic) {
  auto system = test::single_host_system(test::chain_spec_config(2), 0.9,
                                         0.8);
  const auto static_report = reliability::analyze(*system.impl);
  const std::vector<impl::Implementation> phases = {*system.impl};
  const auto dynamic_report = reliability::analyze_time_dependent(phases);
  ASSERT_TRUE(static_report.ok());
  ASSERT_TRUE(dynamic_report.ok());
  ASSERT_EQ(static_report->verdicts.size(), dynamic_report->verdicts.size());
  for (std::size_t c = 0; c < static_report->verdicts.size(); ++c) {
    EXPECT_DOUBLE_EQ(static_report->verdicts[c].srg,
                     dynamic_report->verdicts[c].srg);
  }
}

TEST(ReliabilityEdge, ViolationsPreserveDeclarationOrder) {
  spec::SpecificationConfig config;
  config.communicators = {test::comm("in", 10, 0.99),
                          test::comm("mid", 10, 0.99),
                          test::comm("out", 10, 0.99)};
  config.tasks = {test::task("t1", {{"in", 0}}, {{"mid", 1}}),
                  test::task("t2", {{"mid", 1}}, {{"out", 2}})};
  auto system = test::single_host_system(std::move(config), 0.9, 0.9);
  const auto report = reliability::analyze(*system.impl);
  ASSERT_TRUE(report.ok());
  const auto violations = report->violations();
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0].name, "in");
  EXPECT_EQ(violations[1].name, "mid");
  EXPECT_EQ(violations[2].name, "out");
  // Slack degrades down the chain.
  EXPECT_GT(violations[0].slack, violations[1].slack);
  EXPECT_GT(violations[1].slack, violations[2].slack);
}

// --- simulation edges ---

TEST(SimEdge, LimitAverageVsUpdateRateForSparseWrites) {
  // l-style comm: period 10, written once per 50-tick specification
  // period. Samples (every 10) share the fate of the last write, so
  // limavg ~ update rate in the long run.
  spec::SpecificationConfig config;
  config.communicators = {test::comm("in", 50), test::comm("out", 10)};
  config.tasks = {test::task("t", {{"in", 0}}, {{"out", 1}})};
  auto system = test::single_host_system(std::move(config), 0.8, 1.0);
  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.periods = 100'000;
  options.faults.seed = 61;
  const auto result = sim::simulate(*system.impl, env, options);
  ASSERT_TRUE(result.ok());
  const auto* out = result->find("out");
  EXPECT_NEAR(out->limit_average, out->update_rate(), 0.01);
  EXPECT_NEAR(out->update_rate(), 0.8, 0.01);
  // 5 samples per update.
  EXPECT_NEAR(static_cast<double>(out->samples) /
                  static_cast<double>(out->updates),
              5.0, 0.1);
}

TEST(SimEdge, RecordingMultipleCommsKeepsThemAligned) {
  auto system = test::single_host_system(test::chain_spec_config(2), 1.0,
                                         1.0);
  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.periods = 7;
  options.record_values_for = {"c0", "c1", "c2"};
  const auto result = sim::simulate(*system.impl, env, options);
  ASSERT_TRUE(result.ok());
  // pi_S = 20 with period-10 communicators: 2 access instants per period.
  EXPECT_EQ(result->value_traces.at("c0").size(), 14u);
  EXPECT_EQ(result->value_traces.at("c1").size(), 14u);
  EXPECT_EQ(result->value_traces.at("c2").size(), 14u);
}

// --- generator LRC bounds ---

TEST(GenEdge, LrcRangeRespected) {
  gen::WorkloadOptions options;
  options.min_lrc = 0.31;
  options.max_lrc = 0.32;
  Xoshiro256 rng(13);
  const auto workload = gen::random_workload(rng, options);
  ASSERT_TRUE(workload.ok());
  for (const auto& comm : workload->specification->communicators()) {
    EXPECT_GE(comm.lrc, 0.31);
    EXPECT_LE(comm.lrc, 0.32);
  }
}

// --- graph DOT on the 3TS (smoke + structure) ---

TEST(GraphEdge, ThreeTankDotIsWellFormed) {
  auto system = plant::make_three_tank_system({});
  const spec::SpecificationGraph graph(*system->specification);
  const std::string dot = graph.to_dot();
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), 1);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '}'), 1);
  EXPECT_NE(dot.find("\"t1\" [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"l1@1\" -> \"t1\""), std::string::npos);
}

}  // namespace
}  // namespace lrt
