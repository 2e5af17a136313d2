#!/usr/bin/env bash
# Per-module host profile of the simulator.
#
# Builds the `profile` CMake preset (Release plus gprof instrumentation,
# with the IPA clone/SRA/partial-inlining passes off so every sample is
# filed under the function it belongs to), runs fig1 (SPEC), fig5
# (pgbench) and fig8 (gRPC) on one bench thread, and prints, per
# figure, the share of gprof's flat-profile self time that falls in
# each src/<module>. Symbols are mapped by their crev::<ns>:: prefix
# (crev:: itself and crev::simd:: are src/base, crev::benchutil:: is
# bench/, a std::function invoker goes with its callable, and the
# fiber switch's asm symbols, crev_sim_*, are src/sim); everything else
# (the C++ library, libc, main) is "other".
#
# gprof samples only the executable's own code, so time spent in libc
# (memset, malloc) and in the kernel (page faults) is missing from its
# total. The fiber switch is the executable's own code and makes no
# system call, so its time is sampled like any other function's. Each figure's wall and CPU seconds are
# therefore printed next to the total sampled self time, and the gap
# between CPU seconds and that total as "outside profiled code". In
# this instrumented build the gap also holds gprof's own mcount calls
# (in libc), so compare the CPU seconds with an uninstrumented run
# before blaming libc or the kernel.
#
# Only the flat profile is used: fiber switches garble gprof's call
# graph.
#
# Usage, from the repository root:
#     tools/profile.sh [OUT_DIR]
# OUT_DIR (default build/profile/runs) keeps each figure's gmon.out and
# flat profile.

set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root/build/profile/runs}
figs=(fig1_spec_wallclock fig5_pgbench_time fig8_grpc_latency)

cd "$root"
cmake --preset profile >/dev/null
cmake --build --preset profile -j "$(nproc)" --target "${figs[@]}" >/dev/null

mkdir -p "$out"
for fig in "${figs[@]}"; do
    mkdir -p "$out/$fig"
    echo "profile: running $fig" >&2
    # gmon.out is written to the working directory at exit; times.txt
    # gets the run's wall and CPU (user + system) seconds.
    CREV_BENCH_THREADS=1 python3 - "$out/$fig" \
        "$root/build/profile/bench/$fig" <<'RUN'
import os
import resource
import subprocess
import sys
import time

run_dir, exe = sys.argv[1:]
start = time.monotonic()
with open(os.path.join(run_dir, "stdout.txt"), "w") as stdout:
    subprocess.run([exe], cwd=run_dir, stdout=stdout, check=True)
wall = time.monotonic() - start
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
with open(os.path.join(run_dir, "times.txt"), "w") as f:
    f.write("%.3f %.3f\n" % (wall, usage.ru_utime + usage.ru_stime))
RUN
    gprof -b -p "$root/build/profile/bench/$fig" "$out/$fig/gmon.out" \
        >"$out/$fig/flat.txt"
done

python3 - "$out" "${figs[@]}" <<'EOF'
import os
import re
import sys

out, figs = sys.argv[1], sys.argv[2:]
MODULES = {"alloc", "base", "cap", "check", "core", "kern", "mem",
           "revoker", "sim", "stats", "trace", "vm", "workload"}
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                 r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


# A std::function's invoker holds the inlined body of the callable
# named by its second template argument, such as a workload lambda.
FUNCTION = re.compile(r"^std::_Function_handler<[^()]*\([^()]*\), (.*)$")


def module(name):
    m = FUNCTION.match(name)
    if m:
        name = m.group(1)
    if name.startswith("crev_sim_"):
        return "src/sim"
    if not name.startswith("crev::"):
        return "other"
    ns = name[len("crev::"):].split("::", 1)[0]
    if ns in MODULES:
        return "src/" + ns
    if ns == "benchutil":
        return "bench"
    return "src/base"  # crev::, crev::simd::


shares = {}
times = {}
for fig in figs:
    with open(os.path.join(out, fig, "times.txt")) as f:
        times[fig] = tuple(float(x) for x in f.read().split())
    self_s = {}
    with open(os.path.join(out, fig, "flat.txt")) as f:
        for line in f:
            m = ROW.match(line)
            if m:
                mod = module(m.group(2))
                self_s[mod] = self_s.get(mod, 0.0) + float(m.group(1))
    total = sum(self_s.values()) or 1.0
    shares[fig] = ({k: 100.0 * v / total for k, v in self_s.items()},
                   total)

mods = sorted({m for s, _ in shares.values() for m in s},
              key=lambda m: -sum(s.get(m, 0.0) for s, _ in
                                 shares.values()))
heads = [f.split("_")[0] for f in figs]
print("| module | " + " | ".join(h + " self %" for h in heads) + " |")
print("|---" * (len(figs) + 1) + "|")
for m in mods:
    print("| %s | %s |" % (m, " | ".join(
        "%.1f" % shares[f][0].get(m, 0.0) for f in figs)))
print("| total self s | %s |" % " | ".join(
    "%.2f" % shares[f][1] for f in figs))
print("| wall s | %s |" % " | ".join("%.2f" % times[f][0] for f in figs))
print("| cpu s | %s |" % " | ".join("%.2f" % times[f][1] for f in figs))
print("| outside profiled code s | %s |" % " | ".join(
    "%.2f (%.0f%% of cpu)" % (times[f][1] - shares[f][1],
                              100.0 * (times[f][1] - shares[f][1]) /
                              (times[f][1] or 1.0)) for f in figs))
EOF
