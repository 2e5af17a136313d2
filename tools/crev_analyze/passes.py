"""The four interprocedural passes (DESIGN.md section 16).

Each pass takes the analysis context built by driver.py — the call
graph, the per-function facts, and the waiver table — and yields
Finding records. All iteration is over sorted keys and BFS with
sorted adjacency, so the findings (and hence the JSON report) are
byte-deterministic.
"""

from collections import namedtuple

from . import facts as F

Finding = namedtuple(
    "Finding", ["rule", "function", "file", "line", "callpath", "message"])

RULES = ("noyield-reach", "lock-evidence", "uncharged-reach",
         "epoch-phase")


# ---------------------------------------------------------------------
# Pass 1: no-yield reachability.
# ---------------------------------------------------------------------

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


# ---------------------------------------------------------------------
# Pass 2: lock-evidence propagation.
# ---------------------------------------------------------------------

def pass_lock_evidence(ctx):
    """A shared-state mutation is clean if every call path from a
    root (thread body, public entry point, indirect-call target)
    passes through synchronisation evidence — the interprocedural
    replacement for crev_lint's retired in-function heuristic."""
    findings = []
    graph = ctx.graph

    def protects(q):
        node = ctx.nodes[q]
        return (bool(node["facts"]["evidence"])
                or ctx.is_observer(q)
                or ctx.fn_waived("lock-evidence", q))

    exposed = graph.exposed_from_roots(protects)

    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        muts = node["facts"]["mutations"]
        if not muts:
            continue
        if protects(qname):
            continue
        if qname not in exposed:
            continue  # every inbound path passes through evidence
        path = graph.path_to(exposed, qname)
        reported = set()
        for member, what, line in muts:
            if member in reported:
                continue
            if ctx.line_waived("lock-evidence", node["fn"].file, line):
                continue
            reported.add(member)
            findings.append(Finding(
                rule="lock-evidence",
                function=qname,
                file=ctx.relpath(node["fn"].file),
                line=line,
                callpath=path,
                message="mutation of %s with no synchronisation "
                        "evidence on the call path shown "
                        "(assertHeld/heldBy, stopTheWorld/stwOwnedBy, "
                        "or an on* race-checker hook): register the "
                        "domain somewhere on the path or waive with "
                        "the single-writer argument" % what,
            ))
    return findings


# ---------------------------------------------------------------------
# Pass 3: uncharged-access reachability.
# ---------------------------------------------------------------------

def pass_uncharged_reach(ctx):
    """Uncharged accessors may only be reached from off-clock
    observer roots or the vm cost-model layer; a simulation path
    caller must show a charge (chargeReadPaddr/chargeAccess/...) in the
    same function."""
    findings = []
    graph = ctx.graph

    def protects(q):
        return ctx.is_observer(q) or ctx.fn_waived("uncharged-reach", q)

    exposed = graph.exposed_from_roots(protects)

    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        uncharged = node["facts"]["uncharged"]
        if not uncharged:
            continue
        if protects(qname) or ctx.is_vm(qname):
            continue
        if node["facts"]["charges"]:
            continue  # charge discipline shown locally
        if qname not in exposed:
            continue  # only observers can reach it
        path = graph.path_to(exposed, qname)
        for acc, line in uncharged:
            if ctx.line_waived("uncharged-reach", node["fn"].file, line):
                continue
            findings.append(Finding(
                rule="uncharged-reach",
                function=qname,
                file=ctx.relpath(node["fn"].file),
                line=line,
                callpath=path,
                message="uncharged accessor %s() reachable from a "
                        "non-observer root with no charge in the "
                        "calling function: use the charging API or "
                        "charge the cycles before peeking" % acc,
            ))
    return findings


# ---------------------------------------------------------------------
# Pass 4: epoch-phase ordering.
# ---------------------------------------------------------------------

def _check_ops(ops):
    """Validate one epoch driver's operation sequence. Returns
    [(message, line)]. Legal shape: open with advance; snapshot the
    audit set before any phase bracket; phase brackets properly
    nested; every stop-the-world resumed; close (finishEpoch, or a
    second advance for the emergency path) last."""
    errs = []
    if not ops:
        errs.append(("epoch driver performs no epoch-protocol "
                     "operations (must open with "
                     "EpochCounter::advance)", 0))
        return errs
    if ops[0][0] != "advance":
        errs.append(("epoch must open with EpochCounter::advance "
                     "(first operation is %s)" % ops[0][0], ops[0][2]))
    advances = 0
    closed_at = None
    stw_open = None
    phase_stack = []
    first_phase = None
    first_snapshot = None
    for op, phase, line in ops:
        if closed_at is not None:
            errs.append(("%s after the epoch already closed at line %d"
                         % (op, closed_at), line))
            continue
        if op == "advance":
            advances += 1
            if advances >= 2:
                closed_at = line  # emergency completion
        elif op == "snapshot":
            if first_snapshot is None:
                first_snapshot = line
        elif op == "stw":
            if stw_open is not None:
                errs.append(("stop-the-world at line %d never resumed"
                             % stw_open, line))
            stw_open = line
        elif op == "resume":
            if stw_open is None:
                errs.append(("resumeWorld without a stop-the-world",
                             line))
            stw_open = None
        elif op == "phase_begin":
            if first_phase is None:
                first_phase = line
            phase_stack.append((phase, line))
        elif op == "phase_end":
            if not phase_stack or phase_stack[-1][0] != phase:
                errs.append(("tracePhaseEnd(%s) does not match the "
                             "open bracket %s"
                             % (phase, phase_stack[-1][0]
                                if phase_stack else "<none>"), line))
            else:
                phase_stack.pop()
        elif op == "finish":
            if phase_stack:
                errs.append(("finishEpoch with phase bracket %s still "
                             "open (opened line %d)"
                             % phase_stack[-1], line))
            if stw_open is not None:
                errs.append(("finishEpoch inside the stop-the-world "
                             "opened at line %d" % stw_open, line))
            closed_at = line
    if first_phase is not None and (first_snapshot is None
                                    or first_snapshot > first_phase):
        errs.append(("phase bracket opened before snapshotAuditSet: "
                     "the audit set must be pinned before any "
                     "paint/scan work", first_phase))
    if stw_open is not None:
        errs.append(("stop-the-world never resumed", stw_open))
    if phase_stack:
        errs.append(("phase bracket %s never closed" % phase_stack[-1][0],
                     phase_stack[-1][1]))
    if closed_at is None:
        errs.append(("epoch never closes: finishEpoch (or the "
                     "emergency path's completing advance) missing",
                     ops[-1][2]))
    return errs


def pass_epoch_phase(ctx):
    findings = []
    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        if node["fn"].name not in F.EPOCH_DRIVERS:
            continue
        if node["facts"]["layer"] not in ("revoker", "fixture"):
            continue
        ops = node["facts"]["epoch_ops"]
        if ctx.fn_waived("epoch-phase", qname):
            continue
        for message, line in _check_ops(ops):
            findings.append(Finding(
                rule="epoch-phase",
                function=qname,
                file=ctx.relpath(node["fn"].file),
                line=line or node["fn"].line,
                callpath=[qname],
                message=message,
            ))
    return findings


ALL_PASSES = (
    ("noyield-reach", pass_noyield_reach),
    ("lock-evidence", pass_lock_evidence),
    ("uncharged-reach", pass_uncharged_reach),
    ("epoch-phase", pass_epoch_phase),
)
