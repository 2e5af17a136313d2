"""The name sets the no-yield pass reasons over: yield sinks, the
functions that cut its search, and the off-clock observer files. The
pass logic itself lives in passes.py.
"""

import os

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

#: Off-clock observer components: they run outside the simulated cost
#: model and are audited by construction (DESIGN.md section 11), so
#: they cut the no-yield search.
OBSERVER_DIRS = (
    os.path.join("src", "check"),
    os.path.join("src", "trace"),
)
OBSERVER_FILES = frozenset(("auditor.cc", "auditor.h"))


def is_observer_file(path, repo_root, fixture_dir):
    if path.startswith(fixture_dir + os.sep):
        return False
    rel = os.path.relpath(path, repo_root)
    if any(rel.startswith(d + os.sep) for d in OBSERVER_DIRS):
        return True
    return os.path.basename(path) in OBSERVER_FILES


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
