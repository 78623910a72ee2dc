// The shared per-instant simulation machine behind every runtime.
//
// RuntimeCore owns every piece of simulation state (replications, latches,
// pending broadcasts, EDF run queues, accumulators) and executes the
// canonical instant body — host events, period-boundary hooks, commits,
// recording, the update point, latching, task execution — as one
// deterministic function of (now, state). Four runtimes sit on it and
// differ only in which instants they visit and who decides the workload:
//
//  * the tick engine (runtime.cpp, Engine::kTick) visits every multiple of
//    the harmonic grid step — the reference oracle, and the default;
//  * the event engine (runtime.cpp, Engine::kEvent) jumps from instant to
//    next_instant() — the next row or grid-rounded scripted host event —
//    advancing processors and the environment across the gap in one
//    window;
//  * the E-machine (ecode/emachine.cpp) decodes generated E-code and
//    checks it, reaction by reaction, against the activation table below
//    before driving either engine;
//  * the mode-switching runtime (htl/mode_runtime.cpp) is an UpdateHook:
//    at each period boundary it reads the committed switch conditions and
//    hands back the Implementation of the next mode selection, which
//    install_swap() installs.
//
// The activation table. init() and install_swap() compile the running
// specification into one row per *active* offset inside the
// specification period pi_S (every multiple of some communicator period).
// A row lists, in body order, the sensor commits, the due votes, the
// communicator accesses (Z_j sampling, value traces, divergence check),
// the actuations, the input latches and the task releases of that offset.
// Rows are found by a cursor that advances with the visit order: every
// engine visits every row (rows are activation instants), so the next row
// is always the cursor's, and an instant that does not match it is idle —
// no dense per-tick table and no search. Each task output's commit row is
// precomputed, and broadcasts wait in a per-row bucket tagged with their
// absolute commit time. All per-instant scratch (vote candidates, task
// inputs and default outputs) lives in reused members, so after the first
// period a run without value recording, task functions, monitor or
// tracer allocates nothing (tests/steady_state_alloc_test.cpp).
//
// The tick body is a no-op (beyond environment/processor advancement) at
// any instant that is neither a row nor a (grid-rounded) scripted host
// event — the activation-set argument of DESIGN.md section 5g. Keeping the
// body in one place is what makes the runtimes' traces bit-identical by
// construction: there is no second copy of the semantics to drift.
//
// This header is an internal seam between the runtimes, not public API;
// user code goes through sim::simulate / SimulationOptions::engine,
// ecode::run_emachine and htl::simulate_with_switching.
#ifndef LRT_SIM_RUNTIME_CORE_H_
#define LRT_SIM_RUNTIME_CORE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "impl/implementation.h"
#include "obs/sink.h"
#include "sim/environment.h"
#include "sim/fault_plan.h"
#include "sim/runtime.h"
#include "sim/trace.h"
#include "sim/voting.h"
#include "support/status.h"

namespace lrt::sim::detail {

/// A communicator vote of one row: due at every row visit from the
/// epoch-relative write instant `first_due` on (a write instant of pi_S
/// lands on offset 0 but is not due at the epoch itself).
struct VoteEntry {
  spec::CommId comm = -1;
  spec::Time first_due = 0;
};

/// Copy communicator `comm` into input `input` of `task`.
struct LatchEntry {
  spec::TaskId task = -1;
  int input = 0;
  spec::CommId comm = -1;
};

/// One active offset of the specification period; the ranges index the
/// table's flat arrays.
struct ActivationRow {
  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  spec::Time offset = 0;
  Range sensors, votes, accesses, actuations, latches, releases;
};

/// The running specification compiled for execution (see the file
/// comment). Rows are sorted by offset; row 0 has offset 0.
struct ActivationTable {
  /// Where a task output commits: its row and epoch-relative write
  /// instant within the release's period.
  struct Commit {
    std::uint32_t row = 0;
    spec::Time offset = 0;
    spec::CommId comm = -1;
  };

  /// Compiles `spec`; `is_actuator` is indexed by CommId.
  static ActivationTable compile(const spec::Specification& spec,
                                 const std::vector<bool>& is_actuator);

  template <typename T>
  [[nodiscard]] std::span<const T> slice(const std::vector<T>& items,
                                         ActivationRow::Range range) const {
    return {items.data() + range.begin, range.end - range.begin};
  }

  spec::Time period = 1;
  std::vector<ActivationRow> rows;
  std::vector<spec::CommId> sensors;     ///< input comms with readers
  std::vector<VoteEntry> votes;
  std::vector<spec::CommId> accesses;    ///< every comm, every multiple
  std::vector<spec::CommId> actuations;
  std::vector<LatchEntry> latches;
  std::vector<spec::TaskId> releases;
  /// commits[commit_begin[t] + k]: output k of task t.
  std::vector<std::uint32_t> commit_begin;
  std::vector<Commit> commits;
};

class RuntimeCore;

/// A front end's say at the update point (see RuntimeCore::tick): the
/// mode-switching runtime picks the next mode selection here.
class UpdateHook {
 public:
  virtual ~UpdateHook() = default;
  /// Called at every period boundary of the running specification, after
  /// that instant's commits and actuation. Returns the implementation for
  /// the opening period, or null to keep the running one; an error aborts
  /// the run.
  [[nodiscard]] virtual Result<const impl::Implementation*> at_update_point(
      spec::Time now, const RuntimeCore& core) = 0;
};

/// A broadcast output value awaiting its commit (write) instant.
struct PendingWrite {
  spec::CommId comm = -1;
  arch::HostId source = -1;
  spec::Time commit = 0;  ///< absolute commit instant
  spec::Value value;
};

class RuntimeCore {
 public:
  /// `phases` must be nonempty and share one specification/architecture;
  /// iteration k runs under phases[k mod N]. `hook` (optional) is
  /// consulted at every update point after the monitor. All references
  /// must outlive the core.
  RuntimeCore(std::span<const impl::Implementation> phases, Environment& env,
              const SimulationOptions& options, UpdateHook* hook = nullptr);

  /// Validates the configuration and builds the initial state and
  /// activation table. Must be called (and succeed) before any other
  /// method.
  [[nodiscard]] Status init();

  /// Executes the canonical body for instant `now`: host events, the
  /// period-boundary tracer span and monitor remap hook, sensor commits
  /// and votes, recording/actuation, the update point (monitor, then
  /// hook), input latching, and task execution. Instants must be visited
  /// in strictly increasing order and must include every row. Fails only
  /// on a remap or swap targeting foreign models, or a hook error.
  [[nodiscard]] Status tick(spec::Time now) {
    if (now != next_row_at_ && !host_event_due(now)) return Status();
    return tick_active(now);
  }

  /// Timed execution mode: runs every host's preemptive-EDF processor
  /// over the window [from, to). The function is additive over window
  /// splits, so engines may advance tick-by-tick or in one jump. No-op
  /// when model_execution_time is off.
  void advance_processors(spec::Time from, spec::Time to) {
    if (options_.model_execution_time) run_processors(from, to);
  }

  /// Advances the environment over [from, to), honouring its granularity
  /// contract: one advance() call per base tick (kEveryTick) or a single
  /// call for the whole window (kCoalesce).
  void advance_environment(spec::Time from, spec::Time to);

  /// Emits the trailing trace span and the run counters, then assembles
  /// the result. Call exactly once, after the last tick.
  [[nodiscard]] SimulationResult finish();

  /// The harmonic grid step (gcd of the communicator periods) of the
  /// specification currently in force.
  [[nodiscard]] spec::Time step() const { return step_; }
  /// The specification period pi_S currently in force.
  [[nodiscard]] spec::Time hyperperiod() const { return hyperperiod_; }
  /// Total simulated ticks, frozen at init() from the initial
  /// specification (a later hot-swap never moves the horizon).
  [[nodiscard]] spec::Time duration() const { return duration_; }
  /// The specification currently in force (changes on a hot-swap).
  [[nodiscard]] const spec::Specification& spec() const { return *spec_; }
  /// The activation table of the specification in force.
  [[nodiscard]] const ActivationTable& table() const { return table_; }
  /// The first instant after the last tick() at which tick() can do work:
  /// the earlier of the next activation row and the next scripted host
  /// event, the latter rounded up to the grid (anchored at the epoch of
  /// the specification in force) where the tick engine would apply it.
  /// Valid after the first tick().
  [[nodiscard]] spec::Time next_instant() const {
    if (next_host_event_ == host_events_.size()) return next_row_at_;
    const spec::Time event = host_events_[next_host_event_].time;
    return std::min(next_row_at_,
                    epoch_ + (event - epoch_ + step_ - 1) / step_ * step_);
  }
  [[nodiscard]] const obs::Sink* sink() const { return sink_; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// The replication-consensus value of `comm` (hosts always agree, and
  /// set_all_replications writes every row, so host 0 stands for all).
  [[nodiscard]] const spec::Value& committed(spec::CommId comm) const {
    return values_[static_cast<std::size_t>(comm)];
  }

 private:
  [[nodiscard]] bool host_event_due(spec::Time now) const {
    return next_host_event_ < host_events_.size() &&
           host_events_[next_host_event_].time <= now;
  }
  [[nodiscard]] Status tick_active(spec::Time now);
  /// (Re)builds every spec-shaped table for the specification in force.
  void compile_tables();
  /// Points the row cursor at row `row` of the period starting at
  /// `period_start`.
  void seek_row(std::size_t row, spec::Time period_start);
  /// Installs `next` (possibly targeting a different specification) at
  /// boundary `now`: rebases the grid epoch, carries communicator state
  /// over by name, and re-derives every spec-shaped table. Fails only
  /// when `next` uses a foreign architecture or (in timed mode) a task
  /// without timing entries.
  [[nodiscard]] Status install_swap(spec::Time now,
                                    const impl::Implementation* next);
  [[nodiscard]] Status load_timing();
  void apply_host_events(spec::Time now);
  void commit_updates(spec::Time now, std::size_t row);
  void record_and_actuate(spec::Time now, const ActivationRow& row);
  void latch_inputs(const ActivationRow& row);
  void execute_tasks(spec::Time now, const ActivationRow& row);
  void deliver_outputs(spec::TaskId task, arch::HostId host,
                       spec::Time period_start, spec::Time available_at,
                       std::span<const spec::Value> outputs);
  void run_processors(spec::Time from, spec::Time to);

  void set_all_replications(spec::CommId comm, const spec::Value& value) {
    for (std::size_t i = static_cast<std::size_t>(comm); i < values_.size();
         i += num_comms_) {
      values_[i] = value;
    }
  }

  std::span<const impl::Implementation> phases_;
  /// Specification in force; reseated by install_swap().
  const spec::Specification* spec_;
  const arch::Architecture& arch_;
  Environment& env_;
  const SimulationOptions& options_;
  RuntimeMonitor* monitor_;
  UpdateHook* hook_;
  /// Resolved observability sink (null = disabled) and its tracer.
  const obs::Sink* sink_;
  obs::Tracer* tracer_;
  std::int64_t period_start_us_ = 0;
  /// Updates that committed bottom (no contributor / failed sensor).
  std::int64_t bottom_updates_ = 0;
  /// Mapping installed by the monitor or a swap; supersedes phases_.
  const impl::Implementation* override_ = nullptr;
  /// The implementation in force for the current period: the override
  /// once installed, else the scheduled phase (refreshed at boundaries).
  const impl::Implementation* phase_;

  spec::Time step_ = 1;
  spec::Time hyperperiod_ = 1;
  /// Instant the current specification took effect (0 until a swap); all
  /// grid/period arithmetic is relative to it.
  spec::Time epoch_ = 0;
  /// Simulated horizon, frozen at init() from the initial specification.
  spec::Time duration_ = 0;
  bool coalesce_ = false;

  ActivationTable table_;
  /// Row visited next, its absolute instant, and its period's start.
  std::size_t cursor_ = 0;
  spec::Time next_row_at_ = 0;
  spec::Time cursor_period_ = 0;

  std::size_t num_comms_ = 0;
  /// values_[host * num_comms_ + comm]: the communicator replications.
  std::vector<spec::Value> values_;
  std::vector<bool> host_up_;
  std::size_t next_host_event_ = 0;
  std::vector<FaultPlan::HostEvent> host_events_;

  /// latched_[host * latch_width_ + latch_base_[task] + input].
  std::vector<spec::Value> latched_;
  std::vector<std::size_t> latch_base_;
  std::size_t latch_width_ = 0;

  /// pending_[row]: broadcasts committing at that row, tagged with their
  /// absolute commit instant.
  std::vector<std::vector<PendingWrite>> pending_;
  /// Reused per-instant scratch (never shrinks).
  std::vector<spec::Value> candidates_;
  std::vector<spec::Value> inputs_;
  std::vector<spec::Value> outputs_;

  // Timed execution mode: one preemptive-EDF processor per host.
  struct ActiveJob {
    spec::TaskId task = -1;
    spec::Time deadline = 0;  ///< absolute completion deadline (EDF key)
    spec::Time remaining = 0;  ///< WCET budget left
    spec::Time period_start = 0;
    bool silent = false;  ///< all attempts failed: consumes time only
    std::vector<spec::Value> outputs;
  };
  std::vector<std::vector<ActiveJob>> run_queues_;  // per host
  std::vector<spec::Time> wcet_;                    // [task * H + host]
  std::vector<spec::Time> wctt_;

  SimulationResult result_;
  std::vector<ReliabilityAccumulator> accumulators_;   // access instants
  std::vector<ReliabilityAccumulator> update_accums_;  // update events
  /// Accumulators of communicators a hot-swap dropped, stashed by name so
  /// a rollback (or a later re-splice) resumes their statistics instead
  /// of restarting the Wilson interval from zero.
  std::map<std::string,
           std::pair<ReliabilityAccumulator, ReliabilityAccumulator>>
      retired_accums_;
  /// traces_[comm]: the recorded value trace, null when not recorded.
  std::vector<std::vector<spec::Value>*> traces_;
  std::vector<bool> is_actuator_;
};

/// Drives an initialised core to its horizon on `engine` and returns
/// finish()'s result.
[[nodiscard]] Result<SimulationResult> drive(RuntimeCore& core,
                                             SimulationOptions::Engine engine);

}  // namespace lrt::sim::detail

#endif  // LRT_SIM_RUNTIME_CORE_H_
