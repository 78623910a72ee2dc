// Unit tests for src/ecode: code generation shape, disassembly, and — the
// key property — agreement between the E-machine executing generated code
// and the direct runtime interpretation of the specification, exact even
// under faults, plus the check that rejects E-code which disagrees with
// the specification's activation table.
#include <gtest/gtest.h>

#include <algorithm>

#include "ecode/emachine.h"
#include "ecode/program.h"
#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "tests/test_util.h"

namespace lrt::ecode {
namespace {

using test::comm;
using test::task;

int count_op(const EcodeProgram& program, Opcode op) {
  return static_cast<int>(
      std::count_if(program.code.begin(), program.code.end(),
                    [op](const Instruction& inst) { return inst.op == op; }));
}

TEST(Codegen, SingleTaskProgramShape) {
  auto system = test::single_host_system(test::chain_spec_config(1));
  const auto program = generate_ecode(*system.impl, 0);
  ASSERT_TRUE(program.ok()) << program.status();
  // Period 10, comms c0 (sensor) and c1 (written at instance 1).
  EXPECT_EQ(program->period, 10);
  EXPECT_EQ(count_op(*program, Opcode::kCallSensor), 1);   // c0 @ 0
  EXPECT_EQ(count_op(*program, Opcode::kCallVote), 1);     // c1 @ 0 (10%10)
  EXPECT_EQ(count_op(*program, Opcode::kCallLatch), 1);    // t input
  EXPECT_EQ(count_op(*program, Opcode::kRelease), 1);
  EXPECT_EQ(count_op(*program, Opcode::kCallActuate), 1);  // c1 on io host
  // Every block ends with future + halt.
  EXPECT_EQ(count_op(*program, Opcode::kFuture),
            static_cast<int>(program->blocks.size()));
  EXPECT_EQ(count_op(*program, Opcode::kHalt),
            static_cast<int>(program->blocks.size()));
}

TEST(Codegen, NonIoHostOmitsActuation) {
  test::System system;
  system.spec = std::make_unique<spec::Specification>(
      test::build_spec(test::chain_spec_config(1)));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h1", 0.9}, {"h2", 0.9}};
  arch_config.sensors = {{"s", 0.9}};
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {{"task1", {"h1"}}};
  impl_config.sensor_bindings = {{"c0", "s"}};
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());

  const auto io = generate_ecode(*system.impl, 0);
  const auto other = generate_ecode(*system.impl, 1);
  ASSERT_TRUE(io.ok());
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(count_op(*io, Opcode::kCallActuate), 1);
  EXPECT_EQ(count_op(*other, Opcode::kCallActuate), 0);
  // Host 2 does not run the task, so no release/latch...
  EXPECT_EQ(count_op(*other, Opcode::kRelease), 0);
  EXPECT_EQ(count_op(*other, Opcode::kCallLatch), 0);
  // ... but it still votes (communicators are replicated everywhere).
  EXPECT_EQ(count_op(*other, Opcode::kCallVote), 1);
}

TEST(Codegen, RejectsBadArguments) {
  auto system = test::single_host_system(test::chain_spec_config(1));
  EXPECT_EQ(generate_ecode(*system.impl, 99).status().code(),
            StatusCode::kOutOfRange);
  CodegenOptions options;
  options.actuator_comms = {"ghost"};
  EXPECT_EQ(generate_ecode(*system.impl, 0, options).status().code(),
            StatusCode::kNotFound);
}

TEST(Codegen, DisassemblyIsReadable) {
  auto system = test::single_host_system(test::chain_spec_config(1));
  const auto program = generate_ecode(*system.impl, 0);
  ASSERT_TRUE(program.ok());
  const std::string listing = program->disassemble(*system.spec);
  EXPECT_NE(listing.find("call sensor(c0)"), std::string::npos);
  EXPECT_NE(listing.find("release(task1)"), std::string::npos);
  EXPECT_NE(listing.find("future"), std::string::npos);
  EXPECT_NE(listing.find("@0:"), std::string::npos);
}

TEST(Codegen, ThreeTankBlocksCoverAllInstants) {
  auto system = plant::make_three_tank_system({});
  ASSERT_TRUE(system.ok());
  const auto program = generate_ecode(*system->implementation, 2);
  ASSERT_TRUE(program.ok());
  // Blocks exist exactly at h3's active instants: 0 (sensor updates, r1/r2
  // votes, read releases), 100 (l1/l2 votes, latches), 300 (u1/u2 votes).
  // Idle instants 200 and 400 get no reaction block.
  std::vector<spec::Time> times;
  for (const auto& [time, address] : program->blocks) {
    (void)address;
    times.push_back(time);
  }
  EXPECT_EQ(times, (std::vector<spec::Time>{0, 100, 300}));
}

// --- E-machine vs. direct runtime ---

TEST(EMachine, MatchesRuntimeValueTracesWithoutFaults) {
  // Deterministic (fault-free) execution of the 3TS closed loop: the
  // E-machine executing generated code must produce exactly the value
  // trace of the direct interpreter.
  auto system = plant::make_three_tank_system({});
  ASSERT_TRUE(system.ok());

  sim::SimulationOptions options;
  options.periods = 200;
  options.actuator_comms = {"u1", "u2"};
  options.record_values_for = {"l1", "u1", "r1"};
  options.faults.inject_invocation_faults = false;
  options.faults.inject_sensor_faults = false;

  plant::ThreeTankEnvironment env_direct({}, 0.4, 0.3);
  const auto direct = sim::simulate(*system->implementation, env_direct,
                                    options);
  ASSERT_TRUE(direct.ok());

  plant::ThreeTankEnvironment env_machine({}, 0.4, 0.3);
  const auto machine = run_emachine(*system->implementation, env_machine,
                                    options);
  ASSERT_TRUE(machine.ok()) << machine.status();

  for (const std::string name : {"l1", "u1", "r1"}) {
    const auto& a = direct->value_traces.at(name);
    const auto& b = machine->value_traces.at(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << name << " diverges at sample " << i;
    }
  }
  EXPECT_EQ(machine->vote_divergences, 0);
}

TEST(EMachine, EmpiricalRatesMatchAnalysisUnderFaults) {
  auto system = plant::make_three_tank_system({});
  ASSERT_TRUE(system.ok());
  const auto srgs = reliability::compute_srgs(*system->implementation);
  ASSERT_TRUE(srgs.ok());

  sim::SimulationOptions options;
  options.periods = 100'000;
  options.actuator_comms = {"u1", "u2"};
  options.faults.seed = 77;
  sim::NullEnvironment env;
  const auto result = run_emachine(*system->implementation, env, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // The E-machine draws the same keyed faults as the direct runtime, so
  // the two agree exactly, not just statistically.
  const auto direct = sim::simulate(*system->implementation, env, options);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(sim::to_json(*result), sim::to_json(*direct));

  for (const std::string name : {"l1", "u1", "l2", "u2"}) {
    const auto comm_id = *system->specification->find_communicator(name);
    const double analytic = (*srgs)[static_cast<std::size_t>(comm_id)];
    EXPECT_NEAR(result->find(name)->limit_average, analytic, 0.005) << name;
  }
  EXPECT_EQ(result->vote_divergences, 0);
}

TEST(EMachine, ReplicationSurvivesHostKill) {
  // Scenario 1 (t1, t2 on {h1, h2}); kill h1 mid-run: u1/u2 keep updating.
  plant::ThreeTankScenario scenario;
  scenario.variant = plant::ThreeTankVariant::kReplicatedTasks;
  auto system = plant::make_three_tank_system(scenario);
  ASSERT_TRUE(system.ok());

  sim::SimulationOptions options;
  options.periods = 1000;
  options.actuator_comms = {"u1", "u2"};
  options.faults.inject_invocation_faults = false;
  options.faults.inject_sensor_faults = false;
  options.faults.host_events = {{500 * 500, 0, false}};  // kill h1 halfway

  sim::NullEnvironment env;
  const auto result = run_emachine(*system->implementation, env, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->find("u1")->update_rate(), 1.0);
  EXPECT_DOUBLE_EQ(result->find("u2")->update_rate(), 1.0);
  EXPECT_EQ(result->vote_divergences, 0);
}

/// Removes instruction `at`, re-pointing block entries and future
/// targets past it, as an optimizer bug that drops an instruction would.
void drop_instruction(EcodeProgram& program, std::size_t at) {
  program.code.erase(program.code.begin() + static_cast<std::ptrdiff_t>(at));
  const auto shift = [at](auto& address) {
    if (static_cast<std::size_t>(address) > at) --address;
  };
  for (auto& block : program.blocks) shift(block.second);
  for (Instruction& inst : program.code) {
    if (inst.op == Opcode::kFuture) shift(inst.arg1);
  }
}

std::vector<EcodeProgram> generate_all(const impl::Implementation& impl,
                                       const CodegenOptions& options) {
  std::vector<EcodeProgram> programs;
  for (arch::HostId h = 0;
       h < static_cast<arch::HostId>(impl.architecture().hosts().size());
       ++h) {
    programs.push_back(std::move(generate_ecode(impl, h, options)).value());
  }
  return programs;
}

TEST(EMachine, ExecutesTheCodeItIsGiven) {
  // Scenario 1 replicates t1/t2 on h1 and h2; dropping the release of t1
  // from h2's program alone must not go unnoticed, although h1 still
  // releases t1.
  plant::ThreeTankScenario scenario;
  scenario.variant = plant::ThreeTankVariant::kReplicatedTasks;
  auto system = plant::make_three_tank_system(scenario);
  ASSERT_TRUE(system.ok());
  const impl::Implementation& impl = *system->implementation;
  sim::SimulationOptions options;
  options.periods = 50;
  options.actuator_comms = {"u1", "u2"};
  CodegenOptions codegen;
  codegen.actuator_comms = options.actuator_comms;
  sim::NullEnvironment env;

  std::vector<EcodeProgram> programs = generate_all(impl, codegen);
  const auto intact = run_ecode(programs, impl, env, options);
  ASSERT_TRUE(intact.ok()) << intact.status();
  const auto generated = run_emachine(impl, env, options);
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(sim::to_json(*intact), sim::to_json(*generated));

  const spec::TaskId t1 = *system->specification->find_task("t1");
  EcodeProgram& h2 = programs[1];
  const auto release = std::find(h2.code.begin(), h2.code.end(),
                                 Instruction{Opcode::kRelease, t1, 0});
  ASSERT_NE(release, h2.code.end());
  drop_instruction(h2, static_cast<std::size_t>(release - h2.code.begin()));
  const auto dropped = run_ecode(programs, impl, env, options);
  EXPECT_EQ(dropped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(dropped.status().message().find("host 1"), std::string::npos)
      << dropped.status();

  // A broken trigger chain fails too: a future that does not advance.
  programs = generate_all(impl, codegen);
  for (Instruction& inst : programs[0].code) {
    if (inst.op == Opcode::kFuture) {
      inst.arg0 = 0;
      break;
    }
  }
  EXPECT_EQ(run_ecode(programs, impl, env, options).status().code(),
            StatusCode::kFailedPrecondition);

  // So does a vote moved to the wrong instant.
  programs = generate_all(impl, codegen);
  for (Instruction& inst : programs[2].code) {
    if (inst.op == Opcode::kCallVote) {
      ++inst.arg1;
      break;
    }
  }
  EXPECT_EQ(run_ecode(programs, impl, env, options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EMachine, RejectsBadOptions) {
  auto system = test::single_host_system(test::chain_spec_config(1));
  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.periods = 0;
  EXPECT_FALSE(run_emachine(*system.impl, env, options).ok());
}

}  // namespace
}  // namespace lrt::ecode
