// The calendar-queue discrete-event engine (SimulationOptions::Engine::
// kEvent): advances straight to the next scheduled activation instead of
// iterating the harmonic tick grid.
//
// Activation sources, all fed through one sim::EventQueue:
//  * kCommAccess  — every multiple of each communicator's period (the
//    paper's access instants: commits, Z_j sampling, actuation, latches);
//  * kTaskRelease — each task's read instant, once per specification
//    period (cancelled when a monitor remap unmaps the task);
//  * kPeriodBoundary — the RuntimeMonitor remap hook and the per-period
//    trace span;
//  * kHostAvailability — scripted fault-plan events, rounded up to the
//    grid tick at which the tick engine would apply them.
//
// Every instant the tick engine's body can do work at is one of these
// (DESIGN.md 5g gives the argument), and the body itself is the shared
// detail::RuntimeCore — so traces, counters, monitor callbacks, and RNG
// draws are bit-identical to Engine::kTick. Idle gaps are bridged with a
// single EDF-processor window and one environment advance (honouring
// Environment::advance_granularity()).
//
// Internal header: user code selects the engine via SimulationOptions.
#ifndef LRT_SIM_EVENT_RUNTIME_H_
#define LRT_SIM_EVENT_RUNTIME_H_

#include "support/status.h"

namespace lrt::sim::detail {

class RuntimeCore;

/// Drives an initialised core to its horizon on the event engine; the
/// core's result is then bit-identical to the tick engine's.
[[nodiscard]] Status run_event_engine(RuntimeCore& core);

}  // namespace lrt::sim::detail

#endif  // LRT_SIM_EVENT_RUNTIME_H_
