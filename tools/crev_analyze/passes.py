"""The interprocedural pass (DESIGN.md section 16).

A pass takes the analysis context built by driver.py — the call
graph, its NoYield windows, and the waiver table — and yields Finding
records. All iteration is over sorted keys and BFS with sorted
adjacency, so the findings (and hence the JSON report) are
byte-deterministic.
"""

from collections import namedtuple

from . import facts as F

Finding = namedtuple(
    "Finding", ["rule", "function", "file", "line", "callpath", "message"])

RULES = ("noyield-reach",)


def pass_noyield_reach(ctx):
    """No function invoked inside a NoYield window may transitively
    reach a yield/park/block point.

    The search cuts at: noyield-aware functions (they consult
    noyield_depth_ before yielding), wake-side scheduler primitives
    (the caller never parks inside them), off-clock observers (they
    run outside the simulated clock and cannot yield on the guarded
    thread's behalf), and explicitly waived helpers."""
    findings = []
    graph = ctx.graph

    def cut(q):
        return (F.is_noyield_aware(q) or F.is_notify_safe(q)
                or ctx.is_observer(q)
                or ctx.fn_waived("noyield-reach", q))

    memo = {}

    def path_to_sink(q):
        if q not in memo:
            memo[q] = graph.find_path(q, F.is_yield_sink, cut)
        return memo[q]

    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        if not node["windows"]:
            continue
        if ctx.fn_waived("noyield-reach", qname):
            continue
        seen = set()
        for site, callees in node["window_calls"]:
            if ctx.line_waived("noyield-reach", node["fn"].file,
                               site.line):
                continue
            for callee in callees:
                path = path_to_sink(callee)
                if path is None:
                    continue
                key = (site.line, path[-1])
                if key in seen:
                    continue
                seen.add(key)
                win = node["windows"][site.window]
                findings.append(Finding(
                    rule="noyield-reach",
                    function=qname,
                    file=ctx.relpath(node["fn"].file),
                    line=site.line,
                    callpath=[qname] + path,
                    message="call inside the NoYield window opened at "
                            "line %d can reach yield point %s; a yield "
                            "mid-critical-section breaks the windowed "
                            "atomicity the guard models"
                            % (win.line, path[-1]),
                ))
    return findings


ALL_PASSES = (
    ("noyield-reach", pass_noyield_reach),
)
