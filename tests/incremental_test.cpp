// Differential tests for the incremental SRG evaluator: its SRGs must be
// BIT-identical (==, not approximately equal) to reliability::analyze's
// from-scratch induction, across randomized workloads, random single-task
// host-set and re-execution mutations, and undo-trail rollbacks — the
// contract the fast synthesis engine and lrtd's resident workloads rest on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/workload.h"
#include "reliability/analysis.h"
#include "reliability/incremental.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lrt::reliability {
namespace {

gen::WorkloadOptions workload_options() {
  gen::WorkloadOptions options;
  options.max_layers = 4;
  options.max_tasks_per_layer = 3;
  options.max_hosts = 3;
  options.min_lrc = 0.3;
  options.max_lrc = 0.9;  // some verdicts flip under mutations
  return options;
}

/// The mutated implementation rebuilt from scratch: assignment[t] replaces
/// I(t) and reexecutions[t] its re-execution count in the workload's
/// config, everything else unchanged.
impl::Implementation rebuild(
    const gen::Workload& workload,
    const std::vector<std::vector<arch::HostId>>& assignment,
    const std::vector<int>& reexecutions) {
  impl::ImplementationConfig config = workload.implementation_config;
  const spec::Specification& spec = *workload.specification;
  for (auto& mapping : config.task_mappings) {
    const auto t = spec.find_task(mapping.task);
    EXPECT_TRUE(t.has_value()) << mapping.task;
    mapping.reexecutions = reexecutions[static_cast<std::size_t>(*t)];
    mapping.hosts.clear();
    for (const arch::HostId h : assignment[static_cast<std::size_t>(*t)]) {
      mapping.hosts.push_back(workload.architecture->host(h).name);
    }
  }
  auto result = impl::Implementation::Build(spec, *workload.architecture,
                                            std::move(config));
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

/// Asserts eval's full state equals analyze()'s for `impl`, bitwise.
void expect_bit_identical(const SrgEvaluator& eval,
                          const impl::Implementation& impl,
                          const std::string& context) {
  const auto srgs = compute_srgs(impl);
  ASSERT_TRUE(srgs.ok()) << context << ": " << srgs.status();
  ASSERT_EQ(eval.srgs().size(), srgs->size()) << context;
  for (std::size_t c = 0; c < srgs->size(); ++c) {
    EXPECT_EQ(eval.srgs()[c], (*srgs)[c]) << context << " comm " << c;
  }
  const spec::Specification& spec = impl.specification();
  for (spec::TaskId t = 0; t < static_cast<spec::TaskId>(spec.tasks().size());
       ++t) {
    EXPECT_EQ(eval.task_lambda(t), task_reliability(impl, t))
        << context << " task " << t;
  }
  const auto report = analyze(impl);
  ASSERT_TRUE(report.ok()) << context;
  EXPECT_EQ(eval.all_lrcs_satisfied(), report->reliable) << context;
  for (const CommunicatorVerdict& verdict : report->verdicts) {
    EXPECT_EQ(eval.satisfied(verdict.comm), verdict.satisfied)
        << context << " comm " << verdict.comm;
    EXPECT_EQ(eval.slack(verdict.comm), verdict.slack)
        << context << " comm " << verdict.comm;
  }
}

TEST(SrgEvaluator, MatchesAnalyzeOnRandomWorkloads) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Xoshiro256 rng(seed);
    const auto workload = gen::random_workload(rng, workload_options());
    ASSERT_TRUE(workload.ok()) << workload.status();
    const auto eval =
        SrgEvaluator::FromImplementation(*workload->implementation);
    ASSERT_TRUE(eval.ok()) << eval.status();
    expect_bit_identical(*eval, *workload->implementation,
                         "seed " + std::to_string(seed));
  }
}

TEST(SrgEvaluator, MatchesAnalyzeUnderRandomSingleTaskMutations) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Xoshiro256 rng(seed * 7919 + 1);
    const auto workload = gen::random_workload(rng, workload_options());
    ASSERT_TRUE(workload.ok()) << workload.status();
    const spec::Specification& spec = *workload->specification;
    const arch::Architecture& arch = *workload->architecture;
    auto eval = SrgEvaluator::FromImplementation(*workload->implementation);
    ASSERT_TRUE(eval.ok()) << eval.status();

    const auto num_tasks = static_cast<spec::TaskId>(spec.tasks().size());
    const auto num_hosts = arch.hosts().size();
    std::vector<std::vector<arch::HostId>> assignment;
    std::vector<int> reexecutions(static_cast<std::size_t>(num_tasks), 0);
    for (spec::TaskId t = 0; t < num_tasks; ++t) {
      assignment.push_back(workload->implementation->hosts_for(t));
    }

    for (int mutation = 0; mutation < 25; ++mutation) {
      // Random task, random nonempty host subset (ascending, like
      // Implementation stores it); one mutation in three also changes the
      // task's re-execution count.
      const auto t = static_cast<spec::TaskId>(
          rng.next_below(static_cast<std::uint64_t>(num_tasks)));
      const std::uint64_t mask =
          1 + rng.next_below((std::uint64_t{1} << num_hosts) - 1);
      auto& hosts = assignment[static_cast<std::size_t>(t)];
      hosts.clear();
      for (std::size_t h = 0; h < num_hosts; ++h) {
        if ((mask >> h) & 1u) hosts.push_back(static_cast<arch::HostId>(h));
      }
      if (rng.next_below(3) == 0) {
        int& count = reexecutions[static_cast<std::size_t>(t)];
        count = static_cast<int>(rng.next_below(3));
        eval->set_task_hosts(t, hosts, count);
      } else {
        eval->set_task_hosts(t, hosts);
      }
      EXPECT_EQ(eval->reexecutions(t),
                reexecutions[static_cast<std::size_t>(t)]);
      const impl::Implementation mutated =
          rebuild(*workload, assignment, reexecutions);
      expect_bit_identical(*eval, mutated,
                           "seed " + std::to_string(seed) + " mutation " +
                               std::to_string(mutation));
      // The dirty cone never exceeds a full from-scratch pass.
      EXPECT_LE(eval->comm_updates(),
                eval->evals() *
                    static_cast<std::int64_t>(spec.communicators().size()));
    }
  }
}

TEST(SrgEvaluator, RollbackRestoresBitIdenticalState) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Xoshiro256 rng(seed * 104729 + 3);
    const auto workload = gen::random_workload(rng, workload_options());
    ASSERT_TRUE(workload.ok()) << workload.status();
    auto eval = SrgEvaluator::FromImplementation(*workload->implementation);
    ASSERT_TRUE(eval.ok()) << eval.status();

    const std::vector<double> srgs_before = eval->srgs();
    const bool satisfied_before = eval->all_lrcs_satisfied();
    const spec::Specification& spec = *workload->specification;
    const auto num_tasks = static_cast<spec::TaskId>(spec.tasks().size());
    const auto num_hosts = workload->architecture->hosts().size();

    const SrgEvaluator::Mark mark = eval->mark();
    for (int mutation = 0; mutation < 10; ++mutation) {
      const auto t = static_cast<spec::TaskId>(
          rng.next_below(static_cast<std::uint64_t>(num_tasks)));
      const std::uint64_t mask =
          1 + rng.next_below((std::uint64_t{1} << num_hosts) - 1);
      std::vector<arch::HostId> hosts;
      for (std::size_t h = 0; h < num_hosts; ++h) {
        if ((mask >> h) & 1u) hosts.push_back(static_cast<arch::HostId>(h));
      }
      if (mutation % 2 == 0) {
        eval->set_task_hosts(t, hosts,
                             1 + static_cast<int>(rng.next_below(3)));
      } else {
        eval->set_task_hosts(t, hosts);
      }
    }
    eval->rollback(mark);

    // Every re-execution count is back to the implementation's.
    for (spec::TaskId t = 0; t < num_tasks; ++t) {
      EXPECT_EQ(eval->reexecutions(t),
                workload->implementation->reexecutions(t))
          << "seed " << seed << " task " << t;
    }

    ASSERT_EQ(eval->srgs().size(), srgs_before.size());
    for (std::size_t c = 0; c < srgs_before.size(); ++c) {
      EXPECT_EQ(eval->srgs()[c], srgs_before[c]) << "seed " << seed
                                                 << " comm " << c;
    }
    EXPECT_EQ(eval->all_lrcs_satisfied(), satisfied_before) << seed;
    // Rolled back to the snapshot: a from-scratch analysis of the
    // original implementation must still agree.
    expect_bit_identical(*eval, *workload->implementation,
                         "post-rollback seed " + std::to_string(seed));
  }
}

TEST(SrgEvaluator, CopiesAreIndependent) {
  // The parallel search clones one evaluator per worker; a clone's
  // mutations must not leak into the original.
  Xoshiro256 rng(42);
  const auto workload = gen::random_workload(rng, workload_options());
  ASSERT_TRUE(workload.ok()) << workload.status();
  const auto eval =
      SrgEvaluator::FromImplementation(*workload->implementation);
  ASSERT_TRUE(eval.ok()) << eval.status();

  SrgEvaluator clone = *eval;
  const std::vector<double> srgs_before = eval->srgs();
  const std::vector<arch::HostId> all_hosts = [&] {
    std::vector<arch::HostId> hosts;
    for (std::size_t h = 0; h < workload->architecture->hosts().size(); ++h) {
      hosts.push_back(static_cast<arch::HostId>(h));
    }
    return hosts;
  }();
  for (spec::TaskId t = 0;
       t < static_cast<spec::TaskId>(workload->specification->tasks().size());
       ++t) {
    clone.set_task_hosts(t, all_hosts);
  }
  for (std::size_t c = 0; c < srgs_before.size(); ++c) {
    EXPECT_EQ(eval->srgs()[c], srgs_before[c]) << c;
  }
  expect_bit_identical(*eval, *workload->implementation, "original");
}

TEST(SrgEvaluator, CreateValidatesArguments) {
  const test::System system =
      test::single_host_system(test::chain_spec_config(2));
  // One sensor slot per communicator is required.
  const auto too_few = SrgEvaluator::Create(*system.spec, *system.arch, {});
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);

  // A read input communicator with an unbound (-1) sensor is rejected.
  std::vector<arch::SensorId> unbound(system.spec->communicators().size(),
                                      -1);
  const auto missing =
      SrgEvaluator::Create(*system.spec, *system.arch, unbound);
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  // Wrong re-execution arity.
  std::vector<arch::SensorId> sensors(system.spec->communicators().size(),
                                      -1);
  sensors[0] = 0;  // c0 is the only read input communicator
  const auto bad_reexec = SrgEvaluator::Create(*system.spec, *system.arch,
                                               sensors, {1, 2, 3, 4, 5});
  EXPECT_EQ(bad_reexec.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lrt::reliability
