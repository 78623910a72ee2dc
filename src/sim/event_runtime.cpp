#include "sim/event_runtime.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/runtime_core.h"

namespace lrt::sim::detail {

namespace {

using spec::CommId;
using spec::TaskId;
using spec::Time;

/// Rounds `time` up to the grid instant at which the tick engine would
/// observe it (its body applies a host event at the first tick >= time).
/// The grid is anchored at `epoch` (0 until a live update rebases it).
Time round_up_to_grid(Time time, Time step, Time epoch) {
  if (time <= epoch) return epoch;
  return epoch + ((time - epoch + step - 1) / step) * step;
}

/// Smallest power of two >= n, clamped to the wheel-size range the queue
/// stays cheap in.
std::size_t wheel_buckets(std::size_t n) {
  std::size_t size = 8;
  while (size < n && size < 4096) size *= 2;
  return size;
}

}  // namespace

Status run_event_engine(RuntimeCore& core) {
  const Time duration = core.duration();
  // Grid quantities of the specification currently in force; a live
  // update (RuntimeCore generation bump) refreshes them mid-run.
  Time step = core.step();
  Time hyperperiod = core.hyperperiod();
  auto num_comms =
      static_cast<CommId>(core.spec().communicators().size());
  auto num_tasks = static_cast<TaskId>(core.spec().tasks().size());

  // Calendar geometry: width near the mean spacing of periodic activations
  // within one specification period, wheel sized to the pending-event
  // population (comms + tasks + boundary + fault plan). Correctness never
  // depends on these choices (a hot-swap keeps the geometry), only the
  // constant factor does.
  Time activations_per_period = 1;  // the boundary event
  for (CommId c = 0; c < num_comms; ++c) {
    activations_per_period += hyperperiod / core.spec().communicator(c).period;
  }
  activations_per_period += num_tasks;
  const Time width =
      std::max<Time>(1, hyperperiod / activations_per_period);
  EventQueue queue(width,
                   wheel_buckets(static_cast<std::size_t>(num_comms) +
                                 static_cast<std::size_t>(num_tasks) +
                                 core.host_events().size() + 4));

  // Periodic sources reschedule themselves as they pop; scripted host
  // events are one-shot, rounded up to the tick the reference engine
  // applies them at (events landing past the last tick never fire there
  // either). Every handle is tracked so a live update can cancel the
  // stale calendar wholesale.
  std::vector<EventQueue::Handle> access(
      static_cast<std::size_t>(num_comms), EventQueue::kInvalidHandle);
  for (CommId c = 0; c < num_comms; ++c) {
    access[static_cast<std::size_t>(c)] = queue.schedule(
        0, EventClass::kCommAccess, static_cast<std::uint64_t>(c));
  }
  std::vector<EventQueue::Handle> release(
      static_cast<std::size_t>(num_tasks), EventQueue::kInvalidHandle);
  for (TaskId t = 0; t < num_tasks; ++t) {
    release[static_cast<std::size_t>(t)] =
        queue.schedule(core.spec().read_time(t), EventClass::kTaskRelease,
                       static_cast<std::uint64_t>(t));
  }
  EventQueue::Handle boundary = queue.schedule(0, EventClass::kPeriodBoundary);
  std::vector<EventQueue::Handle> host_handle(core.host_events().size(),
                                              EventQueue::kInvalidHandle);
  for (std::size_t e = 0; e < core.host_events().size(); ++e) {
    const Time at =
        round_up_to_grid(core.host_events()[e].time, step, /*epoch=*/0);
    if (at < duration) {
      host_handle[e] = queue.schedule(at, EventClass::kHostAvailability,
                                      static_cast<std::uint64_t>(e));
    }
  }

  obs::Tracer* tracer = core.tracer();
  const std::int64_t run_start_us = tracer != nullptr ? tracer->now_us() : 0;
  std::int64_t events_processed = 0;
  std::int64_t active_instants = 0;
  const impl::Implementation* last_override = core.override_mapping();
  std::int64_t generation = core.generation();
  // Skipped-instant accounting must survive a step change: grid instants
  // are summed per generation segment ([grid_from, swap) on the old step).
  std::int64_t grid_instants = 0;
  Time grid_from = 0;

  Time now = 0;  // everything strictly before `now` has been simulated
  while (!queue.empty()) {
    const Time at = queue.next_time();
    if (at >= duration) break;
    // Drain every event due at this instant; periodic sources re-arm for
    // their next occurrence so the window below sees it. (Re-arms use the
    // pre-tick specification; a hot-swap inside the tick cancels them.)
    while (!queue.empty() && queue.next_time() == at) {
      const Event event = queue.pop();
      ++events_processed;
      switch (event.klass) {
        case EventClass::kCommAccess:
          access[static_cast<std::size_t>(event.payload)] = queue.schedule(
              at + core.spec()
                       .communicator(static_cast<CommId>(event.payload))
                       .period,
              EventClass::kCommAccess, event.payload);
          break;
        case EventClass::kTaskRelease:
          release[static_cast<std::size_t>(event.payload)] = queue.schedule(
              at + hyperperiod, EventClass::kTaskRelease, event.payload);
          break;
        case EventClass::kPeriodBoundary:
          boundary = queue.schedule(at + hyperperiod,
                                    EventClass::kPeriodBoundary);
          break;
        case EventClass::kHostAvailability:
          host_handle[static_cast<std::size_t>(event.payload)] =
              EventQueue::kInvalidHandle;  // one-shot
          break;
      }
    }
    LRT_RETURN_IF_ERROR(core.tick(at));
    ++active_instants;
    if (core.generation() != generation) {
      // The workload was hot-swapped inside the tick: every pending event
      // derived from the outgoing specification is stale. Close the
      // outgoing grid segment, then rebuild the calendar from the
      // incoming specification with the swap instant as epoch.
      generation = core.generation();
      grid_instants += (at - grid_from) / step;
      grid_from = at;
      step = core.step();
      hyperperiod = core.hyperperiod();
      num_comms = static_cast<CommId>(core.spec().communicators().size());
      num_tasks = static_cast<TaskId>(core.spec().tasks().size());
      for (const EventQueue::Handle h : access) {
        if (h != EventQueue::kInvalidHandle) queue.cancel(h);
      }
      for (const EventQueue::Handle h : release) {
        if (h != EventQueue::kInvalidHandle) queue.cancel(h);
      }
      queue.cancel(boundary);
      // The swap instant itself already ran under the incoming
      // specification's latch/execute half, so every periodic source
      // re-arms for its next epoch-relative occurrence.
      access.assign(static_cast<std::size_t>(num_comms),
                    EventQueue::kInvalidHandle);
      for (CommId c = 0; c < num_comms; ++c) {
        access[static_cast<std::size_t>(c)] = queue.schedule(
            at + core.spec().communicator(c).period, EventClass::kCommAccess,
            static_cast<std::uint64_t>(c));
      }
      last_override = core.override_mapping();
      release.assign(static_cast<std::size_t>(num_tasks),
                     EventQueue::kInvalidHandle);
      for (TaskId t = 0; t < num_tasks; ++t) {
        if (last_override->hosts_for(t).empty()) continue;
        const Time read = core.spec().read_time(t);
        release[static_cast<std::size_t>(t)] = queue.schedule(
            read == 0 ? at + hyperperiod : at + read, EventClass::kTaskRelease,
            static_cast<std::uint64_t>(t));
      }
      boundary = queue.schedule(at + hyperperiod, EventClass::kPeriodBoundary);
      // Unfired scripted host events re-round onto the new grid.
      for (std::size_t e = 0; e < host_handle.size(); ++e) {
        if (host_handle[e] == EventQueue::kInvalidHandle) continue;
        queue.cancel(host_handle[e]);
        host_handle[e] = EventQueue::kInvalidHandle;
        const Time rounded =
            round_up_to_grid(core.host_events()[e].time, step, at);
        if (rounded < duration) {
          host_handle[e] = queue.schedule(rounded,
                                          EventClass::kHostAvailability,
                                          static_cast<std::uint64_t>(e));
        }
      }
    } else if (core.override_mapping() != last_override) {
      // A monitor remap may have unmapped tasks (their pending releases
      // are cancelled — pure pruning, since the shared body is a no-op for
      // a hostless task) or mapped previously idle ones (released from the
      // next read instant on; the boundary instant itself already ran).
      last_override = core.override_mapping();
      for (TaskId t = 0; t < num_tasks; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        const bool mapped = !last_override->hosts_for(t).empty();
        if (!mapped && release[ts] != EventQueue::kInvalidHandle) {
          queue.cancel(release[ts]);
          release[ts] = EventQueue::kInvalidHandle;
        } else if (mapped && release[ts] == EventQueue::kInvalidHandle) {
          const Time read = core.spec().read_time(t);
          release[ts] = queue.schedule(
              read == 0 ? at + hyperperiod : at + read,
              EventClass::kTaskRelease, static_cast<std::uint64_t>(t));
        }
      }
    }
    const Time next =
        queue.empty() ? duration : std::min(queue.next_time(), duration);
    core.advance_processors(at, next);
    core.advance_environment(at, next);
    now = next;
  }
  // Trailing idle window (a cancelled-out calendar, or a horizon ending
  // between activations).
  core.advance_processors(now, duration);
  core.advance_environment(now, duration);

  if (tracer != nullptr) {
    tracer->complete(
        "sim", "event", run_start_us, tracer->now_us(),
        {{"events", static_cast<double>(events_processed)},
         {"active_instants", static_cast<double>(active_instants)}});
  }
  if (const obs::Sink* sink = core.sink(); sink != nullptr) {
    // Final grid segment: the horizon need not be a multiple of the
    // post-swap step, so the tick count rounds up.
    grid_instants += (duration - grid_from + step - 1) / step;
    sink->counter_add("sim.events", events_processed);
    sink->counter_add("sim.ticks_skipped", grid_instants - active_instants);
    // Calendar telemetry, reported by bench_longrun_convergence --json:
    // a pooled steady state keeps allocations near-flat per run.
    const EventQueue::Stats& qs = queue.stats();
    sink->counter_add("sim.queue_allocations", qs.allocations);
    sink->counter_add("sim.queue_resizes", qs.resizes);
  }
  return Status::Ok();
}

}  // namespace lrt::sim::detail
