// The E-machine: runs generated E-code on every host of an implementation,
// against a shared environment and atomic broadcast network. This is the
// "runtime infrastructure" half of the paper's prototype.
//
// The E-machine is a front end of sim::detail::RuntimeCore, not a second
// interpreter. It decodes each host's program by following its trigger
// chain (future/halt) for one specification period, which yields the
// host's reactions: per offset, the sensor, vote, actuate, latch and
// release calls in program order. It then checks these reactions, offset
// by offset, against the core's activation table projected onto the host:
// every row's sensors and votes, the actuations on the I/O host only, and
// the latches and releases of the tasks mapped to the host. A mismatch
// (a dropped release, a misplaced vote, a broken future chain) fails the
// run. The checked table then drives the engine chosen by
// options.engine. So the E-code stays load-bearing, and the results,
// traces and keyed fault draws are bit-identical to sim::simulate's
// (tests/ecode_test.cpp, ctest label `differential`).
#ifndef LRT_ECODE_EMACHINE_H_
#define LRT_ECODE_EMACHINE_H_

#include <span>

#include "ecode/program.h"
#include "sim/environment.h"
#include "sim/runtime.h"
#include "support/status.h"

namespace lrt::ecode {

/// Generates E-code for every host and executes it for
/// `options.periods` specification periods. Produces the same result as
/// sim::simulate; faults, broadcast reliability, value recording,
/// actuator bindings, timed execution and the engine are honoured
/// identically.
[[nodiscard]] Result<sim::SimulationResult> run_emachine(
    const impl::Implementation& impl, sim::Environment& env,
    const sim::SimulationOptions& options, arch::HostId io_host = 0);

/// Executes already generated E-code: programs[h] is host h's program,
/// and `io_host` owns the actuator drivers. Fails when a program
/// disagrees with the implementation's activation table.
[[nodiscard]] Result<sim::SimulationResult> run_ecode(
    std::span<const EcodeProgram> programs, const impl::Implementation& impl,
    sim::Environment& env, const sim::SimulationOptions& options,
    arch::HostId io_host = 0);

}  // namespace lrt::ecode

#endif  // LRT_ECODE_EMACHINE_H_
