#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark between two revisions.

Usage, from anywhere inside the repository:
    python3 tools/perf_ab.py REV_A REV_B [--pairs N] [--seconds S]
        [--workloads spec,pgbench,grpc] [--seed N]

Each revision's committed tree is exported (git archive) into its own
temporary directory, and that revision's own perfbench/run.py runs
there with a separate build directory (CARGO_TARGET_DIR), so neither
side builds or measures the other's code. For every workload the tool
runs N pairs, alternating which revision goes first, then prints, for
each end-to-end metric in BENCHMARK.json, both sides' median and IQR,
how many pairs B won (a tie counts for neither side), the median of the
per-pair ratios B/A, B's median change against A's, and a verdict:
"GAIN" if B won at least 9 of every 10 pairs and B's median is better
than A's by more than A's IQR; else "unresolved" if either side's IQR,
relative to its median, is wider than the metric's relative bound and B
did not beat A in every pair; else "OVER" if B is worse than A by more
than the bound; else "ok".

--seconds defaults to BENCHMARK.json's run_seconds. The exit status is 1
if any run fails or reports "correct": false, and 0 otherwise; a metric
that is over its bound or unresolved is reported but does not change the
exit status.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(*args, cwd=None):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(root, rev, dest):
    """Write the committed tree of @rev into the new directory @dest."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit("perf_ab: git archive %s failed" % rev)


def run_once(checkout, build_dir, workload, seed, seconds):
    """One perfbench run; returns its result line as a dict, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, runs, metrics):
    """Print one workload's table of end-to-end metrics."""
    print("\n== %s: %d pairs ==" % (workload, len(runs["a"])))
    print("%-24s %12s %10s %12s %10s %6s %7s %8s  %s"
          % ("metric", "A median", "A IQR", "B median", "B IQR",
             "B wins", "B/A", "B-A", "verdict"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in runs["a"]]
        b = [r["metrics"][name]["value"] for r in runs["b"]]
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        ratio = statistics.median(y / x if x != 0 else 1.0
                                  for x, y in zip(a, b))
        change = (bm - am) / abs(am) if am != 0 else 0.0
        worse = change if lower else -change
        gain = (am - bm) if lower else (bm - am)
        noisy = any(q3 - q1 > m["bound"] * abs(q2)
                    for q1, q2, q3 in ((a1, am, a3), (b1, bm, b3)))
        if 10 * wins >= 9 * len(a) and gain > a3 - a1:
            verdict = "GAIN"
        elif noisy and wins < len(a):
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "OVER %.2f" % m["bound"]
        else:
            verdict = "ok"
        print("%-24s %12.4g %10.3g %12.4g %10.3g %3d/%-2d %7.3f %+7.1f%%  %s"
              % (name, am, a3 - a1, bm, b3 - b1, wins, len(a), ratio,
                 100 * change, verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads", default="spec,pgbench,grpc")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    root = git("rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = (args.seconds if args.seconds is not None
               else bench["run_seconds"])
    workloads = [w for w in args.workloads.split(",") if w]
    if args.pairs < 1 or seconds <= 0 or not workloads:
        ap.error("need --pairs >= 1, --seconds > 0 and a workload")
    revs = {"a": git("rev-parse", "--verify", args.rev_a + "^{commit}",
                     cwd=root),
            "b": git("rev-parse", "--verify", args.rev_b + "^{commit}",
                     cwd=root)}
    print("A = %s (%s)\nB = %s (%s)\nseed %d, --seconds %g, host_cpus %d"
          % (revs["a"], args.rev_a, revs["b"], args.rev_b, args.seed,
             seconds, len(os.sched_getaffinity(0))), flush=True)

    tmp = tempfile.mkdtemp(prefix="perf_ab.")
    failed = 0
    try:
        checkout = {s: os.path.join(tmp, s) for s in revs}
        build = {s: os.path.join(tmp, "build-" + s) for s in revs}
        for side, rev in revs.items():
            export(root, rev, checkout[side])
        for w in workloads:
            runs = {"a": [], "b": []}
            for i in range(args.pairs):
                order = ("a", "b") if i % 2 == 0 else ("b", "a")
                pair = {}
                for side in order:
                    res = run_once(checkout[side], build[side], w,
                                   args.seed, seconds)
                    ok = res is not None and res.get("correct") is True
                    print("%s pair %d %s: %s" % (
                        w, i + 1, side.upper(),
                        "ok" if ok else "FAILED " + json.dumps(res)),
                        flush=True)
                    if not ok:
                        failed += 1
                    pair[side] = res if ok else None
                if pair["a"] is not None and pair["b"] is not None:
                    runs["a"].append(pair["a"])
                    runs["b"].append(pair["b"])
            if runs["a"]:
                report(w, runs, bench["end_to_end"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if failed:
        print("\nperf_ab: %d run(s) failed or reported correct: false"
              % failed)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
