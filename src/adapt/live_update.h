// Transactional live workload update (adaptive layer).
//
// The paper's design-by-refinement story (Section 3) is a *static* one:
// a refined system may replace the original because schedulability
// (Lemma 1), reliability (Lemma 2) and hence validity (Prop. 2) transfer.
// This module turns that into a runtime capability: replace the workload
// of a LIVE simulation — splice a task, retime a pipeline, tighten an
// LRC — without stopping it, and without ever running an unverified or
// misbehaving mapping for more than a bounded probation window.
//
// The update is a four-stage transaction driven by an UpdateEngine
// mounted as the simulation's RuntimeMonitor:
//
//   propose   The new SpecificationConfig is diffed against the running
//             specification into a *dirty cone*: structurally changed
//             tasks and communicators plus their downstream dataflow
//             closure (everything whose SRG can change).
//   verify    Fast path: when the task sets match by name, the running
//             mapping is carried over and refine::check_refinement
//             discharges the swap with zero search — the paper's lemmas
//             transfer schedulability and reliability. Otherwise the
//             engine re-synthesizes with every task OUTSIDE the dirty
//             cone pinned to its running host set
//             (synth::SynthesisOptions::pinned_hosts), so the search
//             explores only the changed region; LRCs and EDF
//             schedulability are re-validated by the synthesizer. A
//             verification failure rejects the proposal — the running
//             workload is never touched.
//   install   The verified implementation is handed to the runtime at
//             the next specification-period boundary
//             (RuntimeMonitor::on_update_point): communicator state
//             carries over by name, so persisting communicators miss no
//             update; the boundary becomes the new specification's
//             epoch.
//   rollback  For `probation_periods` new-spec periods a fresh
//             LrcMonitor watches every committed update. A kViolated
//             verdict atomically restores the prior implementation at
//             the next boundary (counted as a second spec swap);
//             otherwise the transaction commits.
//
// One engine instance drives at most one transaction per run, mirroring
// the single-writer discipline of the runtime it monitors.
#ifndef LRT_ADAPT_LIVE_UPDATE_H_
#define LRT_ADAPT_LIVE_UPDATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/lrc_monitor.h"
#include "impl/implementation.h"
#include "obs/sink.h"
#include "refine/refinement.h"
#include "sim/runtime.h"
#include "spec/specification.h"
#include "support/status.h"
#include "synth/synthesis.h"

namespace lrt::adapt {

/// How the verify stage discharged (or failed) the proposal.
enum class UpdatePath {
  kNone,            ///< not verified (rejected before either path applied)
  kRefined,         ///< refinement fast path: mapping carried, no search
  kResynthesized,   ///< dirty-cone re-synthesis produced a new mapping
};

/// Transaction lifecycle. Terminal states: kCommitted, kRolledBack,
/// kRejected.
enum class UpdateState {
  kIdle,          ///< no proposal yet
  kStaged,        ///< verified, waiting for an install boundary
  kProbation,     ///< installed, LrcMonitor may still roll it back
  kCommitted,     ///< probation elapsed with no violation
  kRolledBack,    ///< probation tripped; prior workload restored
  kRejected,      ///< verify failed; running workload never touched
};

[[nodiscard]] std::string_view to_string(UpdatePath path);
[[nodiscard]] std::string_view to_string(UpdateState state);

struct LiveUpdateOptions {
  /// Options for the re-synthesis path. `pinned_hosts` is overwritten by
  /// the engine (that is the point); everything else — strategy, engine,
  /// threads, allowed hosts — is honored.
  synth::SynthesisOptions synthesis;
  /// Probation watchdog configuration.
  LrcMonitorOptions lrc;
  /// New-spec periods the installed workload runs under watch before the
  /// transaction commits. 0 commits at the install boundary (no
  /// probation, no rollback).
  std::int64_t probation_periods = 10;
  /// Do not install before this instant (the engine keeps answering the
  /// runtime's update points with null until then).
  spec::Time earliest_install = 0;
  /// Observability: adapt.updates_* counters and an "adapt/update" span
  /// covering propose -> resolution. Null falls back to the process-global
  /// sink.
  obs::Sink* sink = nullptr;
};

/// The transaction record, readable at any stage.
struct UpdateReport {
  UpdateState state = UpdateState::kIdle;
  UpdatePath path = UpdatePath::kNone;
  /// Names (new-spec perspective, ascending) inside the dirty cone.
  std::vector<std::string> dirty_tasks;
  std::vector<std::string> dirty_comms;
  spec::Time proposed_at = -1;   ///< instant passed to propose()
  spec::Time installed_at = -1;  ///< swap boundary, -1 if never installed
  spec::Time resolved_at = -1;   ///< commit/rollback/reject instant
  /// Human-readable reason for a rejection or rollback.
  std::string detail;
  /// The fast-path verdict (meaningful when the fast path was attempted).
  refine::RefinementReport refinement;
  /// Replications of the verified implementation (0 until verified).
  std::size_t replication_count = 0;

  [[nodiscard]] std::string summary() const;
};

/// Drives one live-update transaction against the simulation it monitors.
/// Mount as SimulationOptions::monitor, call propose() (before or during
/// the run), and read report() afterwards. The engine owns the staged
/// specification and implementation and keeps every workload it ever
/// handed to the runtime alive for its own lifetime, as the runtime
/// requires.
class UpdateEngine : public sim::RuntimeMonitor {
 public:
  /// `initial` is the workload the simulation starts on; it must outlive
  /// the engine.
  explicit UpdateEngine(const impl::Implementation& initial,
                        LiveUpdateOptions options = {});

  /// Stages a proposed replacement workload: diffs it against the running
  /// specification, verifies it (refinement fast path, else dirty-cone
  /// re-synthesis), and — on success — arms the install at the next
  /// eligible boundary. `now` stamps the report; pass 0 when proposing
  /// before the run. `sensor_bindings` bind input communicators the
  /// running workload does not already bind (by-name carry-over covers
  /// the rest).
  ///
  /// Returns an error only for API misuse (a transaction already in
  /// flight). Every well-formed call resolves to kStaged or kRejected —
  /// a rejection is a transaction outcome, not an error, and leaves the
  /// running workload untouched.
  [[nodiscard]] Status propose(
      spec::Time now, spec::SpecificationConfig proposed,
      std::vector<impl::ImplementationConfig::SensorBinding>
          sensor_bindings = {});

  // RuntimeMonitor:
  void on_update(spec::Time now, spec::CommId comm, bool reliable,
                 int contributors) override;
  const impl::Implementation* on_update_point(spec::Time now) override;

  [[nodiscard]] UpdateState state() const { return report_.state; }
  [[nodiscard]] const UpdateReport& report() const { return report_; }
  /// The workload currently in force from the engine's perspective.
  [[nodiscard]] const impl::Implementation& active() const {
    return *active_;
  }
  /// The staged/installed implementation (null before a successful
  /// verify).
  [[nodiscard]] const impl::Implementation* staged() const {
    return staged_impl_.get();
  }

 private:
  [[nodiscard]] Status verify(spec::SpecificationConfig proposed,
                              std::vector<impl::ImplementationConfig::
                                              SensorBinding> bindings);
  void reject(const std::string& why);
  void resolve(spec::Time now, UpdateState terminal);

  const impl::Implementation* initial_;
  LiveUpdateOptions options_;
  obs::Sink* sink_;

  const impl::Implementation* active_;    ///< currently-installed workload
  const impl::Implementation* previous_;  ///< rollback target
  std::shared_ptr<const spec::Specification> staged_spec_;
  std::unique_ptr<const impl::Implementation> staged_impl_;

  std::unique_ptr<LrcMonitor> probation_;
  spec::Time probation_ends_ = 0;
  bool rollback_pending_ = false;

  UpdateReport report_;
  std::int64_t span_start_us_ = 0;
};

}  // namespace lrt::adapt

#endif  // LRT_ADAPT_LIVE_UPDATE_H_
