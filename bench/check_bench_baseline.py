#!/usr/bin/env python3
"""CI bench-smoke gate: compare a fresh bench summary against its
checked-in baseline.

The rule set is selected by the summary's "benchmark" field, so one gate
script serves every bench that writes a --json summary:

  synthesis_*  — the fast synthesis engine must not regress:
    * search effort: candidates_evaluated or full_evals grew beyond a
      small tolerance over the baseline (the counters are deterministic,
      so any real growth is an algorithmic regression, not noise);
    * result quality: the minimal cost changed in either engine;
    * wall clock: fast_wall_ms exceeds an absolute budget.

  longrun_*    — the event engine must stay a faithful fast path:
    * identity: the tick and event engines must produce identical
      results (identical == 1) — the CI-level differential oracle;
    * determinism: events and ticks_skipped are exact (same workload,
      same seeds — any drift is a semantics change);
    * performance: the event/tick speedup must stay above a floor at
      about half the lowest recorded value, so a 2x event-engine
      slowdown fails, and event_wall_ms must fit an absolute budget.

  emachine_*   — the E-machine and the mode-switching runtime must stay
    front ends of the tick engine's RuntimeCore, and the event engine
    must stay as cheap as the tick engine on dense grids:
    * identity: the E-machine's 3TS result equals sim::simulate's
      (emachine_identical == 1), and the switching run takes the
      baseline's switch count;
    * performance: each front end's wall time, and the event engine's
      on the examples/htl programs, over the tick engine's, measured in
      the same run, stays under a ceiling.

Wall budgets are generous (~50-100x the recorded times) since CI machines
are slower and noisier than the baseline recorder.

Usage: check_bench_baseline.py <fresh.json> <baseline.json>
"""
import json
import sys

# Deterministic counters get 10% headroom for harmless refactors.
COUNTER_TOLERANCE = 1.10
SYNTHESIS_WALL_BUDGET_MS = 250.0
# About half the lowest of 12 recorded event/tick speedups (31.9-47.5x).
LONGRUN_SPEEDUP_FLOOR = 16.0
LONGRUN_WALL_BUDGET_MS = 250.0
UPDATE_WALL_BUDGET_MS = 250.0
LINT_WALL_BUDGET_MS = 250.0
# The lrtd acceptance bar: a cache-hit delta analyze must stay two
# orders of magnitude cheaper than a cold-miss full analysis. The wall
# budget bounds the hit path absolutely (it is machine-dependent but the
# recorded median is ~4 us, so 100x headroom still catches a path that
# started rebuilding or re-serializing the world).
SERVICE_HIT_SPEEDUP_FLOOR = 100.0
SERVICE_HIT_BUDGET_US = 400.0
# A delta analyze with "full_report": true, over the compact delta, both
# measured in the same run, both moving a task to a host it is not on.
# The full-report delta re-encodes the rows that it and the compact
# delta before it changed (~13, ~0.6 us each in write_verdict_json) and
# writes the ~20 KB frame once: recorded at 2.86-3.39x over 15 Release
# runs. Joining 203 row strings and copying the report into the frame
# and the replay cache measured 4.67-5.25x over 12 runs of the same
# bench, and encoding every communicator per request 28-34x.
SERVICE_FULL_HIT_RATIO_CEILING = 4.0
# The same full-report request replayed by id, over the compact delta:
# the replay cache hands out the cached frame's buffer, recorded at
# 0.46-0.54x over 15 Release runs. Re-running the verb costs what a
# full-report delta does (~3x); copying the ~20 KB frame out of the
# cache, as replays once did, measured 0.57-0.62x, too close to
# resolve, so the ceiling catches a replay that runs the verb again or
# doubles in cost.
SERVICE_FULL_REPLAY_RATIO_CEILING = 0.8
# The socket round trip of a compact delta (p50) over the same delta
# handled by an in-process twin of the server's Service right after it,
# so both medians see the same work in the same machine state. With the
# connection's reader thread handling its own request it recorded
# 3.16-3.82x over 30 pinned Release runs; the server that handed each
# request to a pool worker through a ready-queue recorded 5.30-6.08x
# over 15. Doubling the transport's share (~2.6 handle-times) lands near
# 6x, so the ceiling catches it. (The socket p50 over the bench's
# separately sampled hit_us overlapped between the two servers, 2.12-
# 5.53x against 3.79-8.89x, and could not be gated.)
SERVICE_SOCKET_OVER_HIT_CEILING = 4.5
# Front-end wall over the tick engine, measured in one run on the same
# workload (bench_emachine --json): the E-machine on the 3TS and the
# mode-switching runtime on examples/htl/mode_switching.htl. Both run on
# the tick engine's RuntimeCore, so the ratio is front-end work only
# (E-code generation and check; parse, compile and mode selection),
# recorded at ~1.01x and ~1.10x. The interpreting E-machine this replaced
# took 1.14x the tick engine of its day on the same 3TS run (3.08 against
# 2.71 ms); a front end twice as slow as the core lands near 2x. The same
# ceiling bounds the event engine over the tick engine on the five
# examples/htl programs, where nearly every grid instant is active
# (recorded at ~1.02x), so a 2x event-engine slowdown fails every run.
EMACHINE_RATIO_CEILING = 1.3


def check_synthesis(fresh, base):
    failures = []
    for key in ("reference_cost", "fast_cost"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(synthesis result changed)")

    for key in ("fast_candidates_evaluated", "fast_full_evals"):
        limit = base[key] * COUNTER_TOLERANCE + 1
        if fresh[key] > limit:
            failures.append(
                f"{key}: {fresh[key]} > {limit:.0f} "
                f"(baseline {base[key]} +10%): search effort regressed")

    if fresh["fast_wall_ms"] > SYNTHESIS_WALL_BUDGET_MS:
        failures.append(
            f"fast_wall_ms: {fresh['fast_wall_ms']:.3f} > budget "
            f"{SYNTHESIS_WALL_BUDGET_MS} ms")

    print(f"fresh:    cost={fresh['fast_cost']} "
          f"candidates={fresh['fast_candidates_evaluated']} "
          f"full_evals={fresh['fast_full_evals']} "
          f"wall={fresh['fast_wall_ms']:.3f}ms "
          f"speedup={fresh['speedup']:.0f}x")
    print(f"baseline: cost={base['fast_cost']} "
          f"candidates={base['fast_candidates_evaluated']} "
          f"full_evals={base['fast_full_evals']} "
          f"wall={base['fast_wall_ms']:.3f}ms")
    return failures


def check_longrun(fresh, base):
    failures = []
    if fresh["identical"] != 1:
        failures.append(
            "identical: tick and event engine results DIVERGED — "
            "the event core broke bit-identity")

    # Both engines are seeded and deterministic: the event count and the
    # skipped-tick count must match the baseline exactly.
    for key in ("horizon_ticks", "events", "ticks_skipped"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(event schedule changed)")

    if fresh["speedup"] < LONGRUN_SPEEDUP_FLOOR:
        failures.append(
            f"speedup: {fresh['speedup']:.1f}x < floor "
            f"{LONGRUN_SPEEDUP_FLOOR}x (baseline {base['speedup']:.1f}x): "
            "the event engine lost its sparse-workload advantage")

    if fresh["event_wall_ms"] > LONGRUN_WALL_BUDGET_MS:
        failures.append(
            f"event_wall_ms: {fresh['event_wall_ms']:.3f} > budget "
            f"{LONGRUN_WALL_BUDGET_MS} ms")

    print(f"fresh:    identical={fresh['identical']} "
          f"events={fresh['events']} "
          f"speedup={fresh['speedup']:.1f}x "
          f"event_wall={fresh['event_wall_ms']:.3f}ms")
    print(f"baseline: identical={base['identical']} "
          f"events={base['events']} "
          f"speedup={base['speedup']:.1f}x "
          f"event_wall={base['event_wall_ms']:.3f}ms")
    return failures


def check_update(fresh, base):
    failures = []
    if fresh["identical"] != 1:
        failures.append(
            "identical: the updated run DIVERGED between the tick and "
            "event engines — the hot-swap broke bit-identity")
    if fresh["committed"] != 1:
        failures.append(
            "committed: the live update no longer commits (rejected or "
            "rolled back)")

    # The transaction schedule is deterministic: the swap count and the
    # propose-to-install lag (in instants) must match exactly.
    for key in ("spec_swaps", "install_latency_instants"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(update transaction schedule changed)")

    limit = base["resynth_candidates"] * COUNTER_TOLERANCE + 1
    if fresh["resynth_candidates"] > limit:
        failures.append(
            f"resynth_candidates: {fresh['resynth_candidates']} > "
            f"{limit:.0f} (baseline {base['resynth_candidates']} +10%): "
            "pinned re-synthesis search effort regressed")

    for key in ("refine_wall_ms", "resynth_wall_ms"):
        if fresh[key] > UPDATE_WALL_BUDGET_MS:
            failures.append(
                f"{key}: {fresh[key]:.3f} > budget "
                f"{UPDATE_WALL_BUDGET_MS} ms")

    print(f"fresh:    identical={fresh['identical']} "
          f"swaps={fresh['spec_swaps']} "
          f"install_latency={fresh['install_latency_instants']} "
          f"refine={fresh['refine_wall_ms']:.3f}ms "
          f"resynth={fresh['resynth_wall_ms']:.3f}ms "
          f"candidates={fresh['resynth_candidates']}")
    print(f"baseline: identical={base['identical']} "
          f"swaps={base['spec_swaps']} "
          f"install_latency={base['install_latency_instants']} "
          f"resynth={base['resynth_wall_ms']:.3f}ms "
          f"candidates={base['resynth_candidates']}")
    return failures


def check_lint(fresh, base):
    failures = []
    if fresh["identical"] != 1:
        failures.append(
            "identical: linting the same sources twice rendered "
            "DIFFERENT SARIF — the diagnostics are nondeterministic")
    if fresh["errors"] != 0:
        failures.append(
            f"errors: {fresh['errors']} != 0: a shipped example no longer "
            "lints clean")

    # The analyzer is deterministic over a fixed corpus: the diagnostic
    # yield, the product supergraph size, and the fixpoint effort must
    # match the baseline exactly. Any drift is a rule or engine change
    # that must be re-baselined deliberately.
    for key in ("files", "warnings", "notes", "product_nodes",
                "fixpoint_iterations"):
        if fresh[key] != base[key]:
            failures.append(
                f"{key}: {fresh[key]} != baseline {base[key]} "
                "(analyzer behavior changed)")

    if fresh["lint_wall_ms"] > LINT_WALL_BUDGET_MS:
        failures.append(
            f"lint_wall_ms: {fresh['lint_wall_ms']:.3f} > budget "
            f"{LINT_WALL_BUDGET_MS} ms")

    print(f"fresh:    files={fresh['files']} errors={fresh['errors']} "
          f"warnings={fresh['warnings']} notes={fresh['notes']} "
          f"nodes={fresh['product_nodes']} "
          f"iters={fresh['fixpoint_iterations']} "
          f"identical={fresh['identical']} "
          f"wall={fresh['lint_wall_ms']:.3f}ms")
    print(f"baseline: files={base['files']} errors={base['errors']} "
          f"warnings={base['warnings']} notes={base['notes']} "
          f"nodes={base['product_nodes']} "
          f"iters={base['fixpoint_iterations']} "
          f"wall={base['lint_wall_ms']:.3f}ms")
    return failures


def check_service(fresh, base):
    failures = []
    if fresh["identical"] != 1:
        failures.append(
            "identical: the 1-thread and 8-thread servers answered the "
            "same request log with DIFFERENT bytes — dispatch broke "
            "response determinism")

    if fresh["tasks"] != base["tasks"]:
        failures.append(
            f"tasks: {fresh['tasks']} != baseline {base['tasks']} "
            "(workload changed; re-baseline deliberately)")

    if fresh["hit_speedup"] < SERVICE_HIT_SPEEDUP_FLOOR:
        failures.append(
            f"hit_speedup: {fresh['hit_speedup']:.1f}x < floor "
            f"{SERVICE_HIT_SPEEDUP_FLOOR}x (baseline "
            f"{base['hit_speedup']:.1f}x): the delta analyze path lost "
            "its incremental advantage")

    if fresh["full_hit_ratio"] > SERVICE_FULL_HIT_RATIO_CEILING:
        failures.append(
            f"full_hit_ratio: {fresh['full_hit_ratio']:.1f}x > ceiling "
            f"{SERVICE_FULL_HIT_RATIO_CEILING}x (baseline "
            f"{base['full_hit_ratio']:.1f}x): full-report deltas "
            "re-encode or copy rows the delta did not change")

    if fresh["full_replay_ratio"] > SERVICE_FULL_REPLAY_RATIO_CEILING:
        failures.append(
            f"full_replay_ratio: {fresh['full_replay_ratio']:.2f}x > "
            f"ceiling {SERVICE_FULL_REPLAY_RATIO_CEILING}x (baseline "
            f"{base['full_replay_ratio']:.2f}x): a replayed id copies "
            "its cached frame again")

    if fresh["socket_over_hit"] > SERVICE_SOCKET_OVER_HIT_CEILING:
        failures.append(
            f"socket_over_hit: {fresh['socket_over_hit']:.2f}x > ceiling "
            f"{SERVICE_SOCKET_OVER_HIT_CEILING}x (baseline "
            f"{base['socket_over_hit']:.2f}x): the transport adds thread "
            "handoffs or copies between read and reply")

    if fresh["hit_us"] > SERVICE_HIT_BUDGET_US:
        failures.append(
            f"hit_us: {fresh['hit_us']:.1f} > budget "
            f"{SERVICE_HIT_BUDGET_US} us (baseline "
            f"{base['hit_us']:.1f} us)")

    print(f"fresh:    identical={fresh['identical']} "
          f"tasks={fresh['tasks']} "
          f"cold={fresh['cold_us']:.0f}us hit={fresh['hit_us']:.1f}us "
          f"speedup={fresh['hit_speedup']:.0f}x "
          f"full_hit={fresh['full_hit_us']:.1f}us "
          f"({fresh['full_hit_ratio']:.1f}x) "
          f"full_replay={fresh['full_replay_us']:.1f}us "
          f"({fresh['full_replay_ratio']:.2f}x) "
          f"throughput={fresh['throughput_rps']:.0f}rps "
          f"p99={fresh['p99_us']:.0f}us "
          f"socket_over_hit={fresh['socket_over_hit']:.2f}x")
    print(f"baseline: identical={base['identical']} "
          f"tasks={base['tasks']} "
          f"cold={base['cold_us']:.0f}us hit={base['hit_us']:.1f}us "
          f"speedup={base['hit_speedup']:.0f}x "
          f"full_hit={base['full_hit_us']:.1f}us "
          f"({base['full_hit_ratio']:.1f}x) "
          f"full_replay={base['full_replay_us']:.1f}us "
          f"({base['full_replay_ratio']:.2f}x) "
          f"throughput={base['throughput_rps']:.0f}rps "
          f"p99={base['p99_us']:.0f}us "
          f"socket_over_hit={base['socket_over_hit']:.2f}x")
    return failures


def check_emachine(fresh, base):
    failures = []
    if fresh["emachine_identical"] != 1:
        failures.append(
            "emachine_identical: the E-machine's 3TS result DIVERGED from "
            "sim::simulate's")
    if fresh["switches_taken"] != base["switches_taken"]:
        failures.append(
            f"switches_taken: {fresh['switches_taken']} != baseline "
            f"{base['switches_taken']} (mode switching changed)")
    for key, meaning in (
            ("emachine_over_tick",
             "a front end stopped being a thin layer over RuntimeCore"),
            ("switching_over_tick",
             "a front end stopped being a thin layer over RuntimeCore"),
            ("event_over_tick",
             "the event engine got slower than the tick engine on dense "
             "grids")):
        if fresh[key] > EMACHINE_RATIO_CEILING:
            failures.append(
                f"{key}: {fresh[key]:.3f}x > ceiling "
                f"{EMACHINE_RATIO_CEILING}x (baseline {base[key]:.3f}x): "
                f"{meaning}")

    for label, summary in (("fresh:   ", fresh), ("baseline:", base)):
        print(f"{label} identical={summary['emachine_identical']} "
              f"switches={summary['switches_taken']} "
              f"emachine/tick={summary['emachine_over_tick']:.3f}x "
              f"switching/tick={summary['switching_over_tick']:.3f}x "
              f"event/tick={summary['event_over_tick']:.3f}x")
    return failures


RULES = {
    "synthesis": check_synthesis,
    "service": check_service,
    "longrun": check_longrun,
    "update": check_update,
    "lint": check_lint,
    "emachine": check_emachine,
}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        fresh = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)

    fresh_bench = fresh.get("benchmark", "")
    base_bench = base.get("benchmark", "")
    if fresh_bench != base_bench:
        print(f"REGRESSION: benchmark mismatch: fresh '{fresh_bench}' vs "
              f"baseline '{base_bench}'", file=sys.stderr)
        return 1

    checker = next((fn for prefix, fn in RULES.items()
                    if fresh_bench.startswith(prefix)), None)
    if checker is None:
        print(f"REGRESSION: no gate rules for benchmark '{fresh_bench}'",
              file=sys.stderr)
        return 1

    failures = checker(fresh, base)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"bench baseline gate ({fresh_bench}): OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
