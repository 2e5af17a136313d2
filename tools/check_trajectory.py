#!/usr/bin/env python3
"""Validate accumulating bench records (BENCH_TRAJECTORY.json,
BENCH_SOAK.json).

Both files accumulate one entry per run and self-report whether the
run's contract held; this tool turns those self-reports into a CI
gate. The file kind is dispatched on the top-level "bench" key.

bench_all trajectory files (DESIGN.md §9):
  - every run's "end_to_end.sim_results_match" must be true (the
    one-thread and N-thread legs, and repeated trials, agreed);
  - every run's sweep_microbench rows must have "sim_cycles_match"
    true (repeated trials agreed on simulated cycles);
  - runs carrying an "alloc_shard" record (DESIGN.md §15) must have
    "sim_results_match" true (trials agreed at every shard count) and
    "remote_free_sends" > 0 (the sharded cell really drove the
    remote-dealloc queues); records that emit a "min_leg_seconds"
    floor must have every timed leg ("*_seconds") at or above it
    (sub-threshold legs are pure host jitter, not measurements);
  - runs with "host_threads" >= 2 must have
    "end_to_end.parallel_speedup" >= 1.15 (cells are independent, so
    cross-cell scaling must not decay; a single-slot cpuset cannot
    scale cross-cell, so it is exempt);
  - among full-mode (non-quick) runs, the newest run's
    "end_to_end.fast_parallel_seconds" must not exceed 1.25x the best
    earlier full-mode run (host-noise tolerance; catches gross e2e
    regressions while the per-run sim_results_match catches
    correctness drift);
  - runs must carry a non-empty "label" and at least one microbench
    row (catches truncated/hand-edited files).

soak files (DESIGN.md §13):
  - every strategy of every run must have "survived" true and
    "oracle_violations" == 0 (the machine outlived its fault schedule
    with zero temporal-safety violations);
  - every run's "oracle_e2e.sim_cycles_match" must be true (attaching
    the oracle did not perturb simulated time).

Exits non-zero with a diagnostic naming the offending run label.
Usage: check_trajectory.py FILE [FILE ...]
"""

import json
import sys


def fail(msg):
    print(f"check_trajectory: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trajectory_runs(runs):
    for i, run in enumerate(runs):
        label = run.get("label")
        if not isinstance(label, str) or not label:
            fail(f"run {i} has no label")
        rows = run.get("sweep_microbench")
        if not isinstance(rows, list) or not rows:
            fail(f'run "{label}" has no sweep_microbench rows')
        for row in rows:
            if row.get("sim_cycles_match") is not True:
                fail(
                    f'run "{label}" regime "{row.get("regime")}": '
                    "simulated cycles diverged between sweep "
                    "measurements"
                )
        e2e = run.get("end_to_end", {})
        if e2e.get("sim_results_match") is not True:
            fail(
                f'run "{label}": simulated results diverged across '
                "host configurations"
            )
        # Cells are independent, so a multi-slot cpuset must scale
        # them across host threads.
        threads = run.get("host_threads")
        par = e2e.get("parallel_speedup")
        if isinstance(threads, int) and threads >= 2:
            if not isinstance(par, (int, float)) or par < 1.15:
                fail(
                    f'run "{label}": parallel_speedup {par} below '
                    "the 1.15 floor despite "
                    f"{threads} host threads"
                )
        # Older runs predate the sharded-allocator comparison; gate it
        # only where recorded.
        ashard = run.get("alloc_shard")
        if ashard is not None:
            if ashard.get("sim_results_match") is not True:
                fail(
                    f'run "{label}" alloc_shard: simulated results '
                    "diverged on the sharded heap"
                )
            sends = ashard.get("remote_free_sends")
            if not isinstance(sends, int) or sends <= 0:
                fail(
                    f'run "{label}" alloc_shard: sharded cell drove '
                    f"no remote frees (remote_free_sends {sends})"
                )
            # Records that emit a noise floor promise every timed leg
            # clears it (older records predate the field).
            floor = ashard.get("min_leg_seconds")
            if isinstance(floor, (int, float)):
                for leg, secs in ashard.items():
                    if not leg.endswith("_seconds") or \
                            leg == "min_leg_seconds":
                        continue
                    if not isinstance(secs, (int, float)) or \
                            secs < floor:
                        fail(
                            f'run "{label}" alloc_shard leg "{leg}": '
                            f"{secs}s is below the {floor}s noise "
                            "floor (noise-sized A/B measurement)"
                        )

    # End-to-end host-time regression: the newest full-mode run vs the
    # best earlier full-mode run, with 1.25x host-noise headroom.
    full = [
        (r.get("label"), r.get("end_to_end", {}).get(
            "fast_parallel_seconds"))
        for r in runs
        if r.get("quick") is not True
    ]
    full = [(l, s) for l, s in full if isinstance(s, (int, float))]
    if len(full) >= 2:
        best_prior = min(s for _, s in full[:-1])
        label, latest = full[-1]
        if latest > 1.25 * best_prior:
            fail(
                f'run "{label}": fast-parallel e2e regressed to '
                f"{latest:.3f}s (best prior full run "
                f"{best_prior:.3f}s, 1.25x budget)"
            )
    return "determinism contract held in all"


def check_soak_runs(runs):
    for i, run in enumerate(runs):
        label = run.get("label")
        if not isinstance(label, str) or not label:
            fail(f"soak run {i} has no label")
        strategies = run.get("strategies")
        if not isinstance(strategies, list) or not strategies:
            fail(f'soak run "{label}" has no strategies')
        for s in strategies:
            name = s.get("strategy", "?")
            if s.get("survived") is not True:
                fail(
                    f'soak run "{label}" strategy "{name}": did not '
                    "survive its fault schedule"
                )
            if s.get("oracle_violations") != 0:
                fail(
                    f'soak run "{label}" strategy "{name}": '
                    f'{s.get("oracle_violations")} temporal-safety '
                    "oracle violation(s)"
                )
        e2e = run.get("oracle_e2e", {})
        if e2e.get("sim_cycles_match") is not True:
            fail(
                f'soak run "{label}": attaching the oracle perturbed '
                "simulated time"
            )
    return "all strategies survived, zero oracle violations"


def check_file(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")

    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f'{path}: no "runs" array (not an accumulating '
             "bench file?)")

    kind = doc.get("bench", "bench_all")
    if kind == "soak":
        verdict = check_soak_runs(runs)
    else:
        verdict = check_trajectory_runs(runs)
    print(f"check_trajectory: OK: {path}: {len(runs)} run(s), "
          f"{verdict}")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main()
