// Incremental SRG evaluation — the synthesis fast path's kernel.
//
// reliability::analyze() recomputes everything from scratch: it rebuilds
// the specification graph, re-derives every task reliability lambda_t, and
// re-runs the Section-3 induction over all communicators. That is the
// right shape for a one-shot analysis, but a synthesis search evaluates
// thousands of candidate mappings that differ in a *single* task's host
// set. The SRG induction is monotone and local: changing I(t) can only
// affect lambda_t and the SRGs of communicators downstream of t (where
// independent-model tasks cut the dataflow). SrgEvaluator exploits this:
//
//  * the topological order of the (model-3-cut) dataflow is computed once
//    at construction;
//  * per-task lambda_t and per-communicator SRGs live in flat
//    std::vector<double> state; evaluating a single-task host-set change
//    re-propagates only through the dirty downstream cone, with no
//    impl::Implementation::Build and no per-candidate allocation;
//  * an undo trail (mark()/rollback()) lets a branch-and-bound search
//    backtrack in O(|changes|) without re-propagating.
//
// Bit-identity contract: srgs() is bitwise identical to what
// reliability::analyze() reports for an Implementation with the same host
// sets, sensor bindings, and re-execution counts — same formulas
// (math_util's series_and / parallel_or, std::pow), same evaluation order
// (hosts ascending, inputs in input_comm_set order, communicators in
// reliability_order). tests/incremental_test.cpp enforces this against
// randomized workloads and mutations.
#ifndef LRT_RELIABILITY_INCREMENTAL_H_
#define LRT_RELIABILITY_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "impl/implementation.h"
#include "support/status.h"

namespace lrt::reliability {

class SrgEvaluator {
 public:
  /// Builds the evaluator for (spec, arch) with the given sensor binding
  /// per communicator (by CommId; -1 = unbound, required to be bound for
  /// every read input communicator) and re-execution count per task
  /// (empty = none anywhere). Every task starts with an empty host set
  /// (lambda_t = 0); call set_task_hosts() to populate. `spec` and `arch`
  /// must outlive the evaluator. Fails with kFailedPrecondition when the
  /// specification is not cycle-safe (the induction is ill-founded) and
  /// kInvalidArgument for missing/out-of-range bindings.
  static Result<SrgEvaluator> Create(const spec::Specification& spec,
                                     const arch::Architecture& arch,
                                     std::vector<arch::SensorId> sensor_by_comm,
                                     std::vector<int> reexecutions = {});

  /// Convenience: evaluator snapshotting an existing implementation's
  /// sensor bindings, re-execution counts, and host sets. srgs() of the
  /// result is bit-identical to compute_srgs(impl).
  static Result<SrgEvaluator> FromImplementation(
      const impl::Implementation& impl);

  /// Replaces I(t) and re-propagates SRGs through the dirty downstream
  /// cone. `hosts` must be duplicate-free and ascending (the order
  /// Implementation stores, which the bit-identity contract depends on).
  /// Returns the number of communicator updates performed (0 when the new
  /// host set yields the same lambda_t).
  std::size_t set_task_hosts(spec::TaskId task,
                             std::span<const arch::HostId> hosts);
  /// Same, also replacing the task's re-execution count (>= 0). A changed
  /// count is recorded in the undo trail, so rollback() restores it.
  std::size_t set_task_hosts(spec::TaskId task,
                             std::span<const arch::HostId> hosts,
                             int reexecutions);

  // --- current state ---
  [[nodiscard]] const std::vector<double>& srgs() const { return srg_; }
  [[nodiscard]] double srg(spec::CommId c) const {
    return srg_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double task_lambda(spec::TaskId t) const {
    return lambda_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] int reexecutions(spec::TaskId t) const {
    return reexecutions_[static_cast<std::size_t>(t)];
  }
  /// lambda_c - mu_c of communicator `c` under the current assignment.
  [[nodiscard]] double slack(spec::CommId c) const;
  /// approx_ge(lambda_c, mu_c), exactly analyze()'s verdict.
  [[nodiscard]] bool satisfied(spec::CommId c) const {
    return satisfied_[static_cast<std::size_t>(c)] != 0;
  }
  /// True iff every non-relaxed communicator's LRC holds. O(1): the
  /// violation count is maintained incrementally.
  [[nodiscard]] bool all_lrcs_satisfied() const { return unsatisfied_ == 0; }

  /// Declares the waived-LRC set (the synthesis options' relaxed_lrcs).
  /// Relaxed communicators keep their SRGs but stop counting as
  /// violations. Ids must be in range.
  void set_relaxed(std::span<const spec::CommId> relaxed);

  // --- backtracking ---
  /// An undo-trail position. Changes after mark() can be reverted with
  /// rollback(); marks nest (LIFO).
  using Mark = std::size_t;
  [[nodiscard]] Mark mark() const { return trail_.size(); }
  /// Reverts every lambda/SRG/re-execution change recorded after `m`,
  /// restoring bit-identical state (including the violation count).
  void rollback(Mark m);
  /// Drops the undo history (long-running callers that never roll back).
  void discard_trail() { trail_.clear(); }

  // --- effort counters ---
  /// Total communicator SRG recomputations across all set_task_hosts
  /// calls (the "dirty cone" work; a full analyze() costs |cset|).
  [[nodiscard]] std::int64_t comm_updates() const { return comm_updates_; }
  /// Number of set_task_hosts calls.
  [[nodiscard]] std::int64_t evals() const { return evals_; }

 private:
  SrgEvaluator() = default;

  /// How a communicator's SRG is produced (paper Section 3 rules).
  enum class Rule : std::uint8_t { kConstantOne, kSensor, kTask };

  void store_srg(std::size_t c, double value);
  void store_lambda(std::size_t t, double value);
  [[nodiscard]] double compute_rule(std::size_t c);
  void propagate();
  void refresh_satisfied(std::size_t c);

  const spec::Specification* spec_ = nullptr;
  const arch::Architecture* arch_ = nullptr;

  // Static structure (built once).
  std::vector<spec::CommId> topo_order_;
  std::vector<int> topo_pos_;                   // by CommId
  std::vector<Rule> rule_;                      // by CommId
  std::vector<double> sensor_rel_;              // by CommId (kSensor only)
  std::vector<spec::TaskId> writer_;            // by CommId (-1 = none)
  std::vector<double> lrc_;                     // by CommId
  std::vector<std::vector<spec::CommId>> task_outputs_;     // by TaskId
  std::vector<std::vector<spec::CommId>> downstream_;       // by CommId
  std::vector<int> reexecutions_;               // by TaskId

  // Flat mutable state.
  std::vector<double> srg_;           // by CommId
  std::vector<double> lambda_;        // by TaskId
  std::vector<std::uint8_t> satisfied_;  // by CommId
  std::vector<std::uint8_t> relaxed_;    // by CommId
  std::int64_t unsatisfied_ = 0;  // non-relaxed communicators violated

  // Reused buffers (no per-candidate allocation in steady state).
  std::vector<double> input_buf_;
  std::vector<double> host_rel_buf_;
  std::vector<int> heap_;                 // topo positions, min-heap
  std::vector<std::uint8_t> dirty_;       // by CommId

  // Undo trail: slot < |cset| is an SRG, the next |tasks| slots are
  // lambdas, and the |tasks| after those are re-execution counts.
  struct TrailEntry {
    std::int32_t slot;
    double old_value;
  };
  std::vector<TrailEntry> trail_;
  bool recording_ = false;

  std::int64_t comm_updates_ = 0;
  std::int64_t evals_ = 0;
};

}  // namespace lrt::reliability

#endif  // LRT_RELIABILITY_INCREMENTAL_H_
