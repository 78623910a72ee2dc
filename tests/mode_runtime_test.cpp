// Tests for the mode-switching HTL runtime: switching on committed bool
// communicators, state persistence across switches, per-mode analysis, and
// reliability accounting under faults.
#include <gtest/gtest.h>

#include <map>

#include "htl/mode_runtime.h"
#include "sim/environment.h"

namespace lrt::htl {
namespace {

// A controller that runs `normal` until the level exceeds a threshold
// (detector task writes the bool `high`), then switches to `drain` mode
// until the level falls back. Sensor-driven, so the environment controls
// the mode trajectory.
constexpr std::string_view kSwitching = R"(
program switching {
  communicator level_raw : real period 10 init 0.0 lrc 0.5;
  communicator high : bool period 20 init false lrc 0.5;
  communicator cmd : real period 20 init 0.0 lrc 0.5;
  module m {
    task detect input (level_raw[0]) output (high[1]);
    mode normal period 20 { invoke detect; switch (high) to drain; }
    mode drain period 20 { invoke detect; }
    start normal;
  }
  module actuate {
    task fill input (level_raw[0]) output (cmd[1]);
    task empty input (level_raw[0]) output (cmd[1]);
    mode filling period 20 { invoke fill; switch (high) to emptying; }
    mode emptying period 20 { invoke empty; }
    start filling;
  }
  architecture {
    host h1 reliability 0.99;
    sensor s reliability 0.99;
    metrics default wcet 2 wctt 1;
  }
  mapping {
    map detect to h1;
    map fill to h1;
    map empty to h1;
    bind level_raw to s;
  }
}
)";

FunctionRegistry switching_functions() {
  FunctionRegistry registry;
  registry["detect"] = [](std::span<const spec::Value> in) {
    return std::vector<spec::Value>{
        spec::Value::boolean(in[0].as_real() > 0.5)};
  };
  registry["fill"] = [](std::span<const spec::Value>) {
    return std::vector<spec::Value>{spec::Value::real(1.0)};
  };
  registry["empty"] = [](std::span<const spec::Value>) {
    return std::vector<spec::Value>{spec::Value::real(-1.0)};
  };
  return registry;
}

/// Level ramps up for the first half of the run, then stays high.
class RampEnvironment final : public sim::Environment {
 public:
  explicit RampEnvironment(double slope) : slope_(slope) {}
  spec::Value read_sensor(std::string_view, spec::Time now) override {
    return spec::Value::real(slope_ * static_cast<double>(now));
  }
  void write_actuator(std::string_view, spec::Time,
                      const spec::Value& value) override {
    last_command_ = value;
  }
  spec::Value last_command_ = spec::Value::bottom();

 private:
  double slope_;
};

sim::SimulationOptions quiet_options(std::int64_t periods) {
  sim::SimulationOptions options;
  options.periods = periods;
  options.faults.inject_invocation_faults = false;
  options.faults.inject_sensor_faults = false;
  options.actuator_comms = {"cmd"};
  return options;
}

TEST(ModeRuntime, SwitchesWhenConditionBecomesTrue) {
  // Level crosses 0.5 at t = 500 (slope 0.001): the `actuate` module must
  // switch from filling to emptying around period 25 of 100.
  RampEnvironment env(0.001);
  const auto result = simulate_with_switching(
      kSwitching, switching_functions(), env, quiet_options(100));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->switches_taken, 0);
  // Both the filling and the emptying selections were occupied.
  std::int64_t filling = 0;
  std::int64_t emptying = 0;
  for (const auto& [key, count] : result->mode_occupancy) {
    if (key.find("actuate=filling") != std::string::npos) filling += count;
    if (key.find("actuate=emptying") != std::string::npos) emptying += count;
  }
  EXPECT_GT(filling, 10);
  EXPECT_GT(emptying, 50);
  EXPECT_EQ(filling + emptying, 100);
  // After the switch the actuator sees `empty`'s command.
  EXPECT_EQ(env.last_command_, spec::Value::real(-1.0));
}

TEST(ModeRuntime, StaysInStartModeWhenConditionNeverFires) {
  RampEnvironment env(0.0);  // level stays at 0: `high` never true
  const auto result = simulate_with_switching(
      kSwitching, switching_functions(), env, quiet_options(50));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->switches_taken, 0);
  ASSERT_EQ(result->mode_occupancy.size(), 1u);
  EXPECT_NE(result->mode_occupancy.begin()->first.find("actuate=filling"),
            std::string::npos);
  EXPECT_EQ(env.last_command_, spec::Value::real(1.0));
}

TEST(ModeRuntime, CommunicatorStatePersistsAcrossSwitch) {
  // `high` is written by detect in both modes; after the switch, cmd keeps
  // updating every period — no value is lost at the boundary.
  RampEnvironment env(0.001);
  sim::SimulationOptions options = quiet_options(100);
  options.record_values_for = {"cmd"};
  const auto result = simulate_with_switching(
      kSwitching, switching_functions(), env, options);
  ASSERT_TRUE(result.ok());
  const auto& trace = result->simulation.value_traces.at("cmd");
  ASSERT_EQ(trace.size(), 100u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_FALSE(trace[i].is_bottom()) << "sample " << i;
  }
}

TEST(ModeRuntime, FaultInjectionDegradesPerAnalysis) {
  // With faults on, cmd's update rate matches lambda = hrel^2 * srel
  // (detect's chain feeds the switch only; fill/empty read the sensor
  // directly: lambda_cmd = hrel * srel = 0.9801).
  RampEnvironment env(0.0);
  sim::SimulationOptions options = quiet_options(100'000);
  options.faults.inject_invocation_faults = true;
  options.faults.inject_sensor_faults = true;
  options.faults.seed = 47;
  const auto result = simulate_with_switching(
      kSwitching, switching_functions(), env, options);
  ASSERT_TRUE(result.ok());
  const auto* cmd = result->simulation.find("cmd");
  ASSERT_NE(cmd, nullptr);
  EXPECT_NEAR(cmd->update_rate(), 0.99 * 0.99, 0.005);
}

/// `go` is a bool sensor that reads true from t = 40 on.
class GoEnvironment final : public sim::Environment {
 public:
  spec::Value read_sensor(std::string_view, spec::Time now) override {
    return spec::Value::boolean(now >= 40);
  }
  void write_actuator(std::string_view, spec::Time,
                      const spec::Value&) override {}
};

TEST(ModeRuntime, SensorConditionIsReadAfterTheBoundaryUpdate) {
  // The switch point sits after the boundary instant's commits, sensor
  // updates included: at t = 40 the condition already holds the reading
  // taken at 40, so the switch fires there and `first` runs two periods
  // (0 and 20). The interpreter this runtime replaced evaluated switches
  // before the boundary's sensor updates; it saw the reading of t = 30
  // and switched one period later.
  constexpr std::string_view kSensed = R"(
    program sensed {
      communicator go : bool period 10 init false lrc 0.5;
      communicator y : real period 20 init 0.0 lrc 0.5;
      module m {
        task a input (go[0]) output (y[1]);
        task b input (go[0]) output (y[1]);
        mode first period 20 { invoke a; switch (go) to second; }
        mode second period 20 { invoke b; }
        start first;
      }
      architecture {
        host h reliability 0.9;
        sensor s reliability 0.9;
        metrics default wcet 1 wctt 1;
      }
      mapping { map a to h; map b to h; bind go to s; }
    }
  )";
  GoEnvironment env;
  sim::SimulationOptions options = quiet_options(10);
  options.actuator_comms = {};
  const auto result = simulate_with_switching(kSensed, {}, env, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->switches_taken, 1);
  EXPECT_EQ(result->mode_occupancy,
            (std::map<std::string, std::int64_t>{{"m=first", 2},
                                                 {"m=second", 8}}));
}

TEST(ModeRuntime, AnalyzeAllSelectionsCoversTheProduct) {
  const auto verdicts = analyze_all_selections(kSwitching);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status();
  EXPECT_EQ(verdicts->size(), 2u * 2u);  // m: 2 modes, actuate: 2 modes
  for (const auto& [key, valid] : *verdicts) {
    EXPECT_TRUE(valid) << key;
  }
}

TEST(ModeRuntime, RejectsBadInput) {
  RampEnvironment env(0.0);
  sim::SimulationOptions options = quiet_options(0);
  EXPECT_FALSE(simulate_with_switching(kSwitching, switching_functions(),
                                       env, options)
                   .ok());
  sim::SimulationOptions timed = quiet_options(10);
  timed.model_execution_time = true;
  EXPECT_FALSE(simulate_with_switching(kSwitching, switching_functions(),
                                       env, timed)
                   .ok());
  // A program without a mapping cannot be executed.
  EXPECT_EQ(simulate_with_switching(R"(
    program p {
      communicator x : real period 10 init 0.0 lrc 0.5;
      communicator y : real period 10 init 0.0 lrc 0.5;
      module m {
        task t input (x[0]) output (y[1]);
        mode a period 10 { invoke t; } start a;
      }
    }
  )", {}, env, quiet_options(10))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lrt::htl
