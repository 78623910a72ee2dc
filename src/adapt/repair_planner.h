// Repair planning after a suspected-permanent host loss (adaptive layer).
//
// Given the currently running implementation and the set of dead hosts, the
// planner searches for a replacement replication mapping on the surviving
// hosts, re-running the paper's Section 3 analysis and the schedulability
// check on every candidate before anything is committed — the same
// machinery that validated the design-time mapping validates the repair,
// so a committed repair carries exactly the paper's guarantee
// (lambda_c >= mu_c under the *surviving* platform).
//
// When no mapping on the survivors can satisfy every LRC, the planner
// degrades gracefully: it sheds communicators — waives their LRC — in
// increasing order of achievable slack lambda_c - mu_c (most hopeless
// first, ties broken by CommId), where lambda_c is measured on the
// reliability ceiling (every task replicated on every survivor), and
// retries until the remaining constraints are satisfiable. The shed set is
// reported verbatim: graceful degradation is explicit, never silent.
#ifndef LRT_ADAPT_REPAIR_PLANNER_H_
#define LRT_ADAPT_REPAIR_PLANNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "impl/implementation.h"
#include "reliability/analysis.h"
#include "support/status.h"
#include "synth/synthesis.h"

namespace lrt::adapt {

struct RepairPolicy {
  /// Options for the replacement mapping search. plan_repair overwrites
  /// `allowed_hosts` (the surviving hosts), `task_redundancy` (the current
  /// implementation's re-execution and checkpoint budgets) and
  /// `relaxed_lrcs` (the shed set, grown by one communicator per round);
  /// everything else — strategy, engine, threads, schedulability,
  /// replication bound — is honored. The defaults (greedy on the
  /// incremental fast engine, one thread) suit a repair on a live system.
  synth::SynthesisOptions synthesis;
};

struct RepairPlan {
  /// True when `config` satisfies every unshed LRC (and, when required,
  /// schedulability). False = best-effort degraded mapping: even shedding
  /// every communicator left no valid mapping (e.g. nothing schedulable
  /// on the survivors).
  bool feasible = false;
  /// The replacement mapping, ready for Implementation::Build. Preserves
  /// the current implementation's sensor bindings and per-task
  /// re-execution/checkpoint budgets (re-spent on the new hosts).
  impl::ImplementationConfig config;
  /// Communicator names whose LRC was sacrificed, in shed order
  /// (increasing achievable slack). Empty = full recovery.
  std::vector<std::string> shed_communicators;
  std::vector<spec::CommId> shed_ids;
  /// Section 3 re-analysis of `config` (per-communicator lambda_c).
  reliability::ReliabilityReport reliability;
  bool schedulable = false;
  /// Search effort across all shedding rounds.
  std::int64_t candidates_evaluated = 0;

  /// One-paragraph human-readable description of the outcome.
  [[nodiscard]] std::string describe() const;
};

/// Plans a repair of `current` around the loss of `dead_hosts`. Fails with
/// kFailedPrecondition when no host survives, kInvalidArgument for an
/// out-of-range dead host id; an implementation that can only be repaired
/// by shedding yields an OK plan with a nonempty shed set, not an error.
[[nodiscard]] Result<RepairPlan> plan_repair(
    const impl::Implementation& current,
    std::span<const arch::HostId> dead_hosts, const RepairPolicy& policy = {});

}  // namespace lrt::adapt

#endif  // LRT_ADAPT_REPAIR_PLANNER_H_
