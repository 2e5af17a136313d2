#!/usr/bin/env python3
"""The repository benchmark: builds crev_perfbench from source, runs one
workload's cell set for a fixed host-time budget, checks every cell and
prints the result as the last line of standard output.

Usage, from the repository root:
    python3 perfbench/run.py --workload spec|pgbench|grpc --seed N \\
        --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--record-fingerprints rewrites this workload's and seed's entries in
fingerprints.json instead of checking them; use it only when a change
to the simulation is intended, and say why in the same change.

See README.md for the workloads, the metrics and what each one means.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "fingerprints.json")

END_TO_END = {
    "host_s": "s",
    "host_cpu_s": "s",
    "sim_mcycles_per_s": "Mcycles/s",
    "host_peak_rss_mb": "MB",
    "setup_s": "s",
    "sim_wall_overhead_pct": "%",
    "sim_cpu_overhead_pct": "%",
    "sim_bus_overhead_pct": "%",
    "sim_rss_overhead_pct": "%",
    "sim_stw_p99_us": "us",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
    "sim_throughput_per_s": "1/s",
}

# Host run time allowed to the measuring binary beyond --seconds: its
# last repetition may overrun, and the whole run must end within 180 s.
RUN_SLACK_S = 120


def per_layer_unit(name):
    for suffix, unit in (("_ns", "ns"), ("_ms", "ms"), ("_s", "s"),
                         ("_pct", "%"), ("_ratio", "ratio"),
                         ("_cycles", "cycles"), ("_bytes", "bytes"),
                         ("_per_access", "ns"), ("_per_page", "ns"),
                         ("_per_switch", "ns")):
        if name.endswith(suffix):
            return unit
    if name.startswith("revoker.host_s"):
        return "s"
    return "count"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build crev_perfbench; returns the binary's path."""
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "crev_perfbench"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "crev_perfbench")


def load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def check_cells(doc, workload, seed, golden):
    """Failed checks per cell name (empty list = the cell passed)."""
    table = golden.get(workload, {}).get(str(seed))
    problems = {}
    for c in doc["cells"]:
        p = []
        if not c["ok"]:
            p.append("threw: " + c["error"])
        if not c["stable"]:
            p.append("fingerprint differs between repetitions")
        if doc["trace"]:
            if not c["traced_match"]:
                p.append("traced fingerprint differs from untraced")
            if c["closure_error"] > 1e-3:
                p.append("self times do not sum to the run time "
                         "(error %.2g)" % c["closure_error"])
        if table is not None and table.get(c["name"]) != c["fingerprint"]:
            p.append("fingerprint %s, table has %s"
                     % (c["fingerprint"], table.get(c["name"])))
        revoking = c["strategy"] != "baseline"
        if not c["revoking_profile"] and c["epochs"] != 0:
            p.append("non-revoking profile ran %d epochs" % c["epochs"])
        if c["revoking_profile"] and revoking and c["epochs"] <= 0:
            p.append("revoking cell ran no epoch")
        if not revoking and c["epochs"] != 0:
            p.append("baseline cell ran an epoch")
        if (c["strategy"] == "reloaded" and c["revoking_profile"]
                and c["chases_pointers"] and c["load_barrier_faults"] <= 0):
            p.append("reloaded cell took no load-barrier fault")
        problems[c["name"]] = p
    return problems


def record_golden(doc, workload, seed, golden):
    golden.setdefault(workload, {})[str(seed)] = {
        c["name"]: c["fingerprint"] for c in doc["cells"]}
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["spec", "pgbench", "grpc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-fingerprints", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    toggles = sorted(k for k in os.environ if k.startswith("CREV_"))
    if toggles:
        fail("refusing to run with host toggles set: " + " ".join(toggles))

    build_dir, binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, "spans-%s.csv" % args.workload)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("crev_perfbench timed out")
    if proc.returncode != 0:
        fail("crev_perfbench exited with %d" % proc.returncode)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    golden = load_golden()
    if args.record_fingerprints:
        record_golden(doc, args.workload, args.seed, golden)
        golden = load_golden()
    problems = check_cells(doc, args.workload, args.seed, golden)

    prov = dict(doc["provenance"])
    prov["measured_s"] = round(time.monotonic() - t0, 3)
    prov["fingerprints_checked"] = (
        str(args.seed) in golden.get(args.workload, {}))
    print("provenance " + json.dumps(prov, sort_keys=True))
    for c in doc["cells"]:
        status = "ok" if not problems[c["name"]] else (
            "FAILED: " + "; ".join(problems[c["name"]]))
        print("cell %-26s fp=%s wall_ms=%.3f cpu_ms=%.3f bus=%d rss_pages=%d "
              "epochs=%d lbf=%d host_s=%.4f %s"
              % (c["name"], c["fingerprint"], c["wall_ms"], c["cpu_ms"],
                 c["bus"], c["rss_pages"], c["epochs"],
                 c["load_barrier_faults"], c["host_s"], status))

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in doc["layers"].items()}
    else:
        values = dict(doc["host"], **doc["sim"])
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    failed = sum(1 for p in problems.values() if p)
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(doc["cells"]),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
