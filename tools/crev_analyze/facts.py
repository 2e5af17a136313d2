"""Per-function fact summaries: the vocabulary the four passes reason
over. Facts are computed from a function's call sites and body lines;
the pass logic itself lives in passes.py.

The shared-state table and mutation grammar moved here from
crev_lint.py when the line-level `shared-mutation` and
`uncharged-access` rules were superseded by the interprocedural
passes (DESIGN.md section 16).
"""

import os
import re

# ---------------------------------------------------------------------
# Name sets, matched against the last one or two qname segments.
# ---------------------------------------------------------------------

#: Yield / park / block points: reaching one of these inside a
#: NoYield window would let the scheduler run mid-critical-section.
YIELD_SINKS = frozenset([
    ("SimThread", "yieldNow"),
    ("SimThread", "yieldSlow"),
    ("SimThread", "sleep"),
    ("SimThread", "sleepUntil"),
    ("Scheduler", "block"),
    ("Scheduler", "stopTheWorld"),
    ("SimMutex", "lock"),
    ("SimEvent", "wait"),
    ("QuarantineShim", "maybeBlock"),
])

#: Functions that consult noyield_depth_ before yielding: they are
#: safe to call inside a window and cut the reachability search.
NOYIELD_AWARE = frozenset([
    ("SimThread", "accrue"),
    ("SimThread", "accrueNoYield"),
])

#: Wake-side scheduler primitives: they make *other* threads
#: runnable and return; the calling thread never parks inside them,
#: so the no-yield search does not descend through them (descending
#: would reach yield points that belong to the woken thread's
#: context, not the caller's).
NOTIFY_SAFE = frozenset([
    ("SimEvent", "notifyAll"),
    ("SimEvent", "notifyOne"),
    ("Scheduler", "wake"),
    ("Scheduler", "wakeMany"),
    ("SimMutex", "unlock"),
])

#: Call names that are synchronisation evidence: explicit lock
#: discipline, a stop-the-world window, or a race-checker domain
#: registration (an on* hook, called as a method).
EVIDENCE_NAMES = frozenset(
    ("assertHeld", "heldBy", "stwOwnedBy", "stopTheWorld"))
_ON_HOOK = re.compile(r"on[A-Z]\w*\Z")

#: Uncharged accessors and the charging APIs that account for them.
UNCHARGED_ACCESSORS = frozenset(
    ("peekTag", "peekByte", "probeQuiet"))
CHARGE_NAMES = frozenset(("chargeReadPaddr", "chargeAccess"))

#: Epoch drivers checked by the phase-ordering pass.
EPOCH_DRIVERS = frozenset(("doEpoch", "emergencyEpoch"))

# ---------------------------------------------------------------------
# Shared revocation state (the race-checker domains of DESIGN.md
# section 11), keyed by the layer whose files may legally name the
# member.
# ---------------------------------------------------------------------


def mutation_re(member):
    """Mutation of @p member: assignment / compound assignment /
    increment (optionally through an index chain, so summary words
    like blocks_[b][w] ^= ... count) or a container-mutating call."""
    m = re.escape(member)
    mutators = (r"push_back|pop_back|emplace_back|emplace|insert|"
                r"erase|clear|resize|assign|swap")
    return re.compile(
        r"\b(?:this\s*->\s*)?" + m + r"(?:\[[^]]*\])*\s*"
        r"(?:(?:[+\-*/%|&^]|<<|>>)?=(?!=)|\+\+|--)"
        r"|(?:\+\+|--)\s*(?:this\s*->\s*)?" + m + r"\b"
        r"|\b(?:this\s*->\s*)?" + m + r"\s*\.\s*(?:" + mutators +
        r")\s*\(")


SHARED_STATE = [
    (mutation_re("gen_"), "gen_", "vm",
     "the MMU's load-barrier generation bit (domain: gen-flip)"),
    (mutation_re("pages_"), "pages_", "vm",
     "the page-table map (domains: pte-publish/pte-teardown)"),
    (mutation_re("pt_epoch_"), "pt_epoch_", "vm",
     "the PTE-pointer-cache epoch (domain: pte-teardown)"),
    (mutation_re("newly_quarantined_"), "newly_quarantined_", "vm",
     "the unmap->reap hand-off queue (domain: quarantine)"),
    (mutation_re("blocks_"), "blocks_", "revoker",
     "the shadow-summary level-0 words (domain: shadow)"),
    (mutation_re("l1_"), "l1_", "revoker",
     "the shadow-summary level-1 bitmap (domain: shadow)"),
    (mutation_re("block_counts_"), "block_counts_", "revoker",
     "the shadow-summary block counts (domain: shadow)"),
    (mutation_re("count_"), "count_", "revoker",
     "the shadow-summary population count (domain: shadow)"),
    (mutation_re("inbox_head"), "inbox_head", "alloc",
     "the remote-dealloc inbox chain head (domain: remote-queue)"),
    (mutation_re("inbox_head_cap"), "inbox_head_cap", "alloc",
     "the remote-dealloc inbox head capability (domain: remote-queue)"),
    (mutation_re("inbox_count"), "inbox_count", "alloc",
     "the remote-dealloc inbox length (domain: remote-queue)"),
]

#: Off-clock observer components: they run outside the simulated cost
#: model and are audited by construction (DESIGN.md section 11), so
#: they are legal roots for uncharged access and count as evidence
#: boundaries for lock propagation.
OBSERVER_DIRS = (
    os.path.join("src", "check"),
    os.path.join("src", "trace"),
)
OBSERVER_FILES = frozenset(("auditor.cc", "auditor.h"))

VM_DIR = os.path.join("src", "vm")

_STRIP_NOISE = re.compile(r'//.*$|"(?:[^"\\]|\\.)*"')


def _layer_of(path, repo_root, fixture_dir):
    if path.startswith(fixture_dir + os.sep):
        return "fixture"
    rel = os.path.relpath(path, repo_root)
    if rel.startswith(os.path.join("src", "vm") + os.sep):
        return "vm"
    if rel.startswith(os.path.join("src", "revoker") + os.sep):
        return "revoker"
    if rel.startswith(os.path.join("src", "alloc") + os.sep):
        return "alloc"
    return None


def is_observer_file(path, repo_root, fixture_dir):
    if path.startswith(fixture_dir + os.sep):
        return False
    rel = os.path.relpath(path, repo_root)
    if any(rel.startswith(d + os.sep) for d in OBSERVER_DIRS):
        return True
    return os.path.basename(path) in OBSERVER_FILES


def is_vm_file(path, repo_root, fixture_dir):
    if path.startswith(fixture_dir + os.sep):
        return False
    return os.path.relpath(path, repo_root).startswith(VM_DIR + os.sep)


def _qname_tail2(qname):
    parts = qname.split("::")
    if len(parts) >= 2:
        return (parts[-2], parts[-1])
    return (None, parts[-1])


def is_yield_sink(qname):
    return _qname_tail2(qname) in YIELD_SINKS


def is_noyield_aware(qname):
    return _qname_tail2(qname) in NOYIELD_AWARE


def is_notify_safe(qname):
    return _qname_tail2(qname) in NOTIFY_SAFE


_PHASE_ARG = re.compile(r"k[A-Z]\w*\Z")


def epoch_ops(tokens, fn):
    """Linear sequence of epoch-protocol operations in a driver body:
    [(op, phase-or-None, line)]."""
    ops = []
    k = fn.body_begin + 1
    while k < fn.body_end:
        t = tokens[k]
        if t.kind == "id" and k + 1 < fn.body_end \
                and tokens[k + 1].text == "(":
            name = t.text
            if name == "advance":
                ops.append(("advance", None, t.line))
            elif name == "snapshotAuditSet":
                ops.append(("snapshot", None, t.line))
            elif name in ("stwBegin", "stopTheWorld"):
                ops.append(("stw", None, t.line))
            elif name == "resumeWorld":
                ops.append(("resume", None, t.line))
            elif name == "finishEpoch":
                ops.append(("finish", None, t.line))
            elif name in ("tracePhaseBegin", "tracePhaseEnd"):
                phase = None
                depth = 0
                j = k + 1
                while j < fn.body_end:
                    tt = tokens[j]
                    if tt.text == "(":
                        depth += 1
                    elif tt.text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif tt.kind == "id" and _PHASE_ARG.match(tt.text):
                        phase = tt.text
                    j += 1
                op = ("phase_begin" if name == "tracePhaseBegin"
                      else "phase_end")
                ops.append((op, phase, t.line))
        k += 1
    return ops


def make_facts(fn, tokens, sites, windows, file_lines, repo_root,
               fixture_dir):
    """Compute the fact summary for one function definition."""
    layer = _layer_of(fn.file, repo_root, fixture_dir)
    evidence = []
    charges = []
    uncharged = []
    for s in sites:
        if s.name in EVIDENCE_NAMES:
            evidence.append((s.name, s.line))
        elif s.kind in ("method", "qualified") and _ON_HOOK.match(s.name):
            evidence.append((s.name, s.line))
        if s.name in CHARGE_NAMES:
            charges.append((s.name, s.line))
        if s.kind in ("method", "qualified") \
                and s.name in UNCHARGED_ACCESSORS:
            uncharged.append((s.name, s.line))

    mutations = []
    if layer is not None:
        begin = tokens[fn.body_begin].line
        end = tokens[fn.body_end].line
        for li in range(begin, min(end, len(file_lines)) + 1):
            text = _STRIP_NOISE.sub("", file_lines[li - 1])
            for pat, member, mlayer, what in SHARED_STATE:
                if layer != "fixture" and mlayer != layer:
                    continue
                if pat.search(text):
                    mutations.append((member, what, li))

    ops = []
    if fn.name in EPOCH_DRIVERS and (
            layer in ("revoker", "fixture")):
        ops = epoch_ops(tokens, fn)

    return {
        "layer": layer,
        "evidence": evidence,
        "charges": charges,
        "uncharged": uncharged,
        "mutations": mutations,
        "epoch_ops": ops,
    }
