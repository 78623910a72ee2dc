// Reliability analysis (paper Section 3).
//
// Given an implementation I, the analysis computes:
//   * task reliability  lambda_t = 1 - prod_{h in I(t)} (1 - hrel(h)),
//     the least probability that (some replication of) t executes at every
//     iteration;
//   * the singular reliability guarantee (SRG) lambda_c of each
//     communicator, by induction over the dataflow:
//       (a) input communicator updated by sensor s: lambda_c = srel(s);
//       (b) communicator written by task t:
//           model 1 (series):      lambda_t * prod lambda_c'
//           model 2 (parallel):    lambda_t * (1 - prod (1 - lambda_c'))
//           model 3 (independent): lambda_t
//         where c' ranges over icset_t.
//
// Proposition 1: for a memory-free (more generally, cycle-safe), race-free
// specification, the implementation is reliable — every reliability-based
// abstract trace satisfies limavg >= mu_c with probability 1 — iff checking
// lambda_c >= mu_c for all c succeeds (sufficiency; by the SLLN).
//
// For specifications with communicator cycles, SRGs are the greatest
// fixpoint of the update operator: cycle-safe cycles are cut by
// independent-model tasks and yield the same values as the induction, while
// an unsafe cycle (no model-3 task) drives the fixpoint — and, per the
// paper, the actual long-run average — to 0.
#ifndef LRT_RELIABILITY_ANALYSIS_H_
#define LRT_RELIABILITY_ANALYSIS_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "impl/implementation.h"
#include "support/json.h"
#include "support/status.h"

namespace lrt::spec {
class SpecificationGraph;
}  // namespace lrt::spec

namespace lrt::reliability {

/// The precondition of analyze(): OK for a cycle-safe specification,
/// else kFailedPrecondition naming its unsafe cycles. The one wording of
/// that failure, for every caller that reports it.
[[nodiscard]] Status require_cycle_safe(const spec::SpecificationGraph& graph);

/// lambda_t for the replication set I(t).
[[nodiscard]] double task_reliability(const impl::Implementation& impl,
                                      spec::TaskId task);

/// SRGs for all communicators by induction over the (model-3-cut) dataflow
/// order. Fails (kFailedPrecondition) when the specification has a
/// communicator cycle with no independent-model task.
[[nodiscard]] Result<std::vector<double>> compute_srgs(
    const impl::Implementation& impl);

/// SRGs as the greatest fixpoint of the update operator, starting from 1.
/// Converges for every specification; on cycle-safe specifications the
/// result agrees with compute_srgs(), and on unsafe cycles it converges to
/// the paper's long-run value 0.
[[nodiscard]] std::vector<double> compute_srgs_fixpoint(
    const impl::Implementation& impl, int max_iterations = 10'000,
    double epsilon = 1e-15);

/// Per-communicator outcome of the LRC check.
struct CommunicatorVerdict {
  spec::CommId comm = -1;
  std::string name;
  double srg = 0.0;   ///< analyzed lambda_c
  double lrc = 1.0;   ///< required mu_c
  bool satisfied = false;
  /// lambda_c - mu_c; negative slack quantifies the violation.
  double slack = 0.0;
};

struct ReliabilityReport {
  bool reliable = false;     ///< all communicators satisfied
  bool memory_free = false;  ///< Prop. 1 precondition
  bool cycle_safe = false;   ///< relaxed precondition (paper Section 3)
  std::vector<CommunicatorVerdict> verdicts;

  /// Verdicts for unsatisfied communicators only.
  [[nodiscard]] std::vector<CommunicatorVerdict> violations() const;
  /// Multi-line table of all verdicts.
  [[nodiscard]] std::string summary() const;
};

/// JSON document for tooling: {reliable, memory_free, cycle_safe,
/// communicators: [{name, srg, lrc, satisfied, slack}]}.
[[nodiscard]] std::string to_json(const ReliabilityReport& report);
/// Same document written into an enclosing writer (lrtd frame payloads).
void write_json(const ReliabilityReport& report, JsonWriter& json);
/// One communicators[] entry of that document: the only definition of a
/// verdict's bytes.
void write_verdict_json(const CommunicatorVerdict& verdict, JsonWriter& json);
/// The same document around `verdicts_body`, the write_verdict_json
/// rows of every communicator in CommId order joined by commas:
/// byte-identical to write_json over the report they encode. For callers
/// that keep the rows' bytes across reports (lrtd's resident workloads).
void write_json(bool reliable, bool memory_free, bool cycle_safe,
                std::string_view verdicts_body, JsonWriter& json);
/// Exact inverse of write_json/to_json; verdict comm ids are recovered
/// from the array order (verdicts are emitted in CommId order).
[[nodiscard]] Result<ReliabilityReport> report_from_json(
    const JsonValue& document);

/// Full reliability analysis of one implementation (Prop. 1 check).
/// Fails only when SRGs are not well-defined (unsafe cycles); an
/// implementation that misses its LRCs yields a report with
/// reliable == false, not an error.
[[nodiscard]] Result<ReliabilityReport> analyze(
    const impl::Implementation& impl);

/// Time-dependent implementation (paper Section 3, "General
/// implementation"): the mapping cycles through `phases` across iterations
/// (phase k at iterations k, k+N, k+2N, ...). The long-run average of the
/// reliability-abstract trace is then the mean over phases of the per-phase
/// SRGs, so the LRC check compares that mean against mu_c.
/// All phases must target the same specification and architecture.
[[nodiscard]] Result<ReliabilityReport> analyze_time_dependent(
    std::span<const impl::Implementation> phases);

}  // namespace lrt::reliability

#endif  // LRT_RELIABILITY_ANALYSIS_H_
