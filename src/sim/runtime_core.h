// The shared per-instant simulation machine behind both engines.
//
// RuntimeCore owns every piece of simulation state (replications, latches,
// pending broadcasts, EDF run queues, accumulators, RNG) and executes the
// canonical tick body — host events, period-boundary hooks, commits,
// recording, latching, task execution — as one deterministic function of
// (now, state). The two engines differ ONLY in which instants they visit:
//
//  * sim::Runtime (runtime.cpp, Engine::kTick) calls tick() at every
//    multiple of the harmonic grid step — the reference oracle;
//  * sim::EventRuntime (event_runtime.cpp, Engine::kEvent) calls tick()
//    only at instants where the body can do work, advancing processors and
//    the environment across the gaps in one window.
//
// The tick body is a no-op (beyond environment/processor advancement) at
// any instant that is not a multiple of some communicator period, a task
// release, or a (grid-rounded) scripted host event — the activation-set
// argument spelled out in DESIGN.md section 5g. Keeping the body in one
// place is what makes the engines' traces bit-identical by construction:
// there is no second copy of the semantics to drift.
//
// This header is an internal seam between the engines, not public API;
// user code goes through sim::simulate / SimulationOptions::engine.
#ifndef LRT_SIM_RUNTIME_CORE_H_
#define LRT_SIM_RUNTIME_CORE_H_

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
#include "support/rng.h"
#include "support/status.h"

namespace lrt::sim::detail {

/// A broadcast output value awaiting its commit (write) instant.
struct PendingWrite {
  spec::CommId comm = -1;
  arch::HostId source = -1;
  spec::Value value;
};

class RuntimeCore {
 public:
  /// `phases` must be nonempty and share one specification/architecture;
  /// iteration k runs under phases[k mod N]. All references must outlive
  /// the core.
  RuntimeCore(std::span<const impl::Implementation> phases, Environment& env,
              const SimulationOptions& options);

  /// Validates the configuration and builds the initial state. Must be
  /// called (and succeed) before any other method.
  [[nodiscard]] Status init();

  /// Executes the canonical body for instant `now`: host events, the
  /// period-boundary tracer span and monitor hook, communicator commits,
  /// recording/actuation, input latching, and task execution. Instants
  /// must be visited in strictly increasing order. Fails only on a
  /// monitor remap targeting foreign models.
  [[nodiscard]] Status tick(spec::Time now);

  /// Timed execution mode: runs every host's preemptive-EDF processor
  /// over the window [from, to). The function is additive over window
  /// splits, so engines may advance tick-by-tick or in one jump. No-op
  /// when model_execution_time is off.
  void advance_processors(spec::Time from, spec::Time to);

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
  /// Instant the current specification took effect: its grid and period
  /// arithmetic are measured from here (0 until the first hot-swap).
  [[nodiscard]] spec::Time epoch() const { return epoch_; }
  /// Bumped on every hot-swap. Engines watch this to rebuild calendars
  /// derived from the outgoing specification.
  [[nodiscard]] std::int64_t generation() const { return generation_; }
  /// Scripted host events, time-sorted (valid after init()).
  [[nodiscard]] const std::vector<FaultPlan::HostEvent>& host_events() const {
    return host_events_;
  }
  /// The monitor-installed mapping override, null until a remap commits.
  /// Engines watch this to resynchronize release schedules after a remap.
  [[nodiscard]] const impl::Implementation* override_mapping() const {
    return override_;
  }
  [[nodiscard]] const obs::Sink* sink() const { return sink_; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

 private:
  /// Installs `next` (possibly targeting a different specification) at
  /// boundary `now`: rebases the grid epoch, carries communicator state
  /// over by name, and re-derives every spec-shaped table. Fails only
  /// when `next` uses a foreign architecture or (in timed mode) a task
  /// without timing entries.
  [[nodiscard]] Status install_swap(spec::Time now,
                                    const impl::Implementation* next);
  void apply_host_events(spec::Time now);
  void commit_updates(spec::Time now);
  void record_and_actuate(spec::Time now);
  void latch_inputs(spec::Time now);
  void execute_tasks(spec::Time now);
  void deliver_outputs(spec::TaskId task, arch::HostId host,
                       spec::Time period_start, spec::Time available_at,
                       const std::vector<spec::Value>& outputs);

  /// The replication-consensus value of `comm` (hosts always agree, and
  /// set_all_replications writes every row, so row 0 stands for all).
  [[nodiscard]] const spec::Value& committed(spec::CommId comm) const {
    return values_.front()[static_cast<std::size_t>(comm)];
  }

  void set_all_replications(spec::CommId comm, const spec::Value& value) {
    for (auto& host_values : values_) {
      host_values[static_cast<std::size_t>(comm)] = value;
    }
  }

  /// The implementation in force at absolute time `now`: a monitor remap
  /// or hot-swap once installed, otherwise the scheduled phase.
  [[nodiscard]] const impl::Implementation& phase_at(spec::Time now) const {
    if (override_ != nullptr) return *override_;
    const auto index = static_cast<std::size_t>(
        ((now - epoch_) / hyperperiod_) %
        static_cast<spec::Time>(phases_.size()));
    return phases_[index];
  }

  std::span<const impl::Implementation> phases_;
  /// Specification in force; reseated by install_swap().
  const spec::Specification* spec_;
  const arch::Architecture& arch_;
  Environment& env_;
  const SimulationOptions& options_;
  RuntimeMonitor* monitor_;
  /// Resolved observability sink (null = disabled) and its tracer.
  const obs::Sink* sink_;
  obs::Tracer* tracer_;
  std::int64_t period_start_us_ = 0;
  /// Updates that committed bottom (no contributor / failed sensor).
  std::int64_t bottom_updates_ = 0;
  /// Mapping installed by the monitor; supersedes phases_ once set.
  const impl::Implementation* override_ = nullptr;

  spec::Time step_ = 1;
  spec::Time hyperperiod_ = 1;
  /// Instant the current specification took effect (0 until a swap); all
  /// grid/period arithmetic is relative to it.
  spec::Time epoch_ = 0;
  /// Simulated horizon, frozen at init() from the initial specification.
  spec::Time duration_ = 0;
  /// Incremented per hot-swap (engine calendars key off it).
  std::int64_t generation_ = 0;

  // values_[host][comm]: the communicator replications.
  std::vector<std::vector<spec::Value>> values_;
  std::vector<bool> host_up_;
  std::size_t next_host_event_ = 0;
  std::vector<FaultPlan::HostEvent> host_events_;

  // latched_[host][task][input j]
  std::vector<std::vector<std::vector<spec::Value>>> latched_;

  // Broadcast values keyed by absolute commit time.
  std::map<spec::Time, std::vector<PendingWrite>> pending_;

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

  // Per communicator: the relative write instants (pi_c * i for each output
  // instance i of the writer task), used to decide when an update is due.
  std::vector<std::vector<spec::Time>> write_instants_;

  SimulationResult result_;
  std::vector<ReliabilityAccumulator> accumulators_;   // access instants
  std::vector<ReliabilityAccumulator> update_accums_;  // update events
  /// Accumulators of communicators a hot-swap dropped, stashed by name so
  /// a rollback (or a later re-splice) resumes their statistics instead
  /// of restarting the Wilson interval from zero.
  std::map<std::string,
           std::pair<ReliabilityAccumulator, ReliabilityAccumulator>>
      retired_accums_;
  std::vector<bool> record_values_;
  std::vector<bool> is_actuator_;
};

}  // namespace lrt::sim::detail

#endif  // LRT_SIM_RUNTIME_CORE_H_
