"""Call-site extraction and repo-wide call graph construction.

Resolution policy (best effort, documented in DESIGN.md section 16):

  * Calls resolve by the last name segment against the table of
    extracted definitions. Overloads collapse onto one node per
    qualified name; a call to an overloaded name edges to every
    definition of that name.
  * Qualified calls (`A::f(...)`) prefer definitions whose qualified
    name ends with the written qualifier; if none match, they fall
    back to name-only resolution.
  * Method calls (`x.f(...)`, `x->f(...)`) resolve to *every* class's
    `f` — this deliberately over-approximates virtual dispatch: a
    call through a base class edges to all overriders.
  * Constructions (`Type v(args)`, including `Base(...)` in ctor
    initializer lists) edge to `Type::Type` when Type is a known
    class; `NoYield` constructions additionally open a no-yield
    window spanning the rest of the enclosing brace scope.
  * Names with no extracted definition (std::, members, function
    pointers, std::function fields, macros) are dropped and counted;
    indirect calls therefore produce no edges. Calls inside a
    constructor's member-initializer arguments are not scanned.
"""

from collections import namedtuple

from .extract import KEYWORDS

#: kind: "call" (unqualified), "method" (. / ->), "qualified"
#: (A::f), "ctor" (Type v(...)). qual: list of qualifier segments or
#: None. window: id of the innermost enclosing NoYield window in this
#: body, or None.
CallSite = namedtuple("CallSite", ["kind", "name", "qual", "line", "window"])

#: A NoYield window: the construction line and its brace depth.
Window = namedtuple("Window", ["line", "depth"])

#: Identifier-like tokens that look like calls but never are.
_NOT_CALLS = frozenset(
    ("assert", "defined", "__builtin_expect", "__builtin_unreachable")
)


def _chain_back(tokens, k, lo):
    """Walk a `a::b::c` chain backwards ending at token k (an id).
    Returns the segment list."""
    segs = [tokens[k].text]
    m = k - 1
    while m - 1 >= lo and tokens[m].text == "::" \
            and tokens[m - 1].kind == "id" \
            and tokens[m - 1].text not in KEYWORDS:
        segs.insert(0, tokens[m - 1].text)
        m -= 2
    return segs


def body_sites(tokens, fn, class_names):
    """Scan one function body. Returns (sites, windows)."""
    sites = []
    windows = []
    active = []  # indices into windows, innermost last
    depth = 0
    lo, hi = fn.body_begin + 1, fn.body_end
    k = lo
    while k < hi:
        t = tokens[k]
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth -= 1
            while active and windows[active[-1]].depth > depth:
                active.pop()
        elif t.kind == "id" and t.text not in KEYWORDS \
                and t.text not in _NOT_CALLS \
                and k + 1 < hi and tokens[k + 1].text == "(":
            win = active[-1] if active else None
            prev = tokens[k - 1] if k - 1 >= fn.body_begin else None
            if prev is not None and prev.text in (".", "->"):
                sites.append(CallSite("method", t.text, None, t.line, win))
            elif prev is not None and prev.text == "::":
                segs = _chain_back(tokens, k, fn.body_begin)
                sites.append(CallSite(
                    "qualified", segs[-1], segs[:-1], t.line, win))
            elif prev is not None and prev.kind == "id" \
                    and prev.text not in KEYWORDS:
                # `Type name(args)`: a construction, with the type
                # possibly qualified (sim::SimThread::NoYield g(t)).
                tsegs = _chain_back(tokens, k - 1, fn.body_begin)
                cls = tsegs[-1]
                if cls in class_names:
                    sites.append(CallSite("ctor", cls, tsegs[:-1],
                                          t.line, win))
                    if cls == "NoYield":
                        windows.append(Window(t.line, depth))
                        active.append(len(windows) - 1)
            else:
                sites.append(CallSite("call", t.text, None, t.line, win))
        k += 1
    # Ctor initializer lists run in the constructor's body for our
    # purposes (base-class construction edges).
    for isegs, line in fn.init_calls:
        name = isegs[-1]
        if name in class_names:
            sites.append(CallSite("ctor", name, isegs[:-1], line, None))
    return sites, windows


class Graph:
    """The resolved call graph over merged function nodes."""

    def __init__(self):
        self.nodes = {}       # qname -> merged node dict (see driver)
        self.by_name = {}     # last segment -> sorted [qname]
        self.edges = {}       # qname -> {callee_qname: first line}
        self.dropped = 0      # call sites with no resolution

    def add_node(self, qname):
        if qname in self.nodes:
            return
        self.nodes[qname] = None
        self.by_name.setdefault(qname.split("::")[-1], []).append(qname)
        self.edges[qname] = {}

    def finalize_names(self):
        for lst in self.by_name.values():
            lst.sort()

    def resolve(self, site):
        """Return the sorted list of callee qnames for a site."""
        cands = self.by_name.get(site.name, [])
        if site.kind == "ctor":
            want = [site.name, site.name]
            cands = self.by_name.get(site.name, [])
            cands = [q for q in cands
                     if q.split("::")[-2:] == want]
        if site.kind in ("qualified", "ctor") and site.qual:
            suffix = list(site.qual) + [site.name]
            if site.kind == "ctor":
                suffix = list(site.qual) + [site.name, site.name]
            narrowed = [q for q in cands
                        if q.split("::")[-len(suffix):] == suffix]
            if narrowed:
                cands = narrowed
        return cands

    def add_call(self, caller, site):
        callees = self.resolve(site)
        if not callees:
            self.dropped += 1
            return []
        for q in callees:
            if q not in self.edges[caller]:
                self.edges[caller][q] = site.line
        return callees

    def sorted_callees(self, qname):
        return sorted(self.edges.get(qname, ()))

    def find_path(self, start, is_target, cut=None):
        """Deterministic BFS from `start` to the first node matching
        `is_target`, refusing to expand nodes matching `cut`. Returns
        the qname path (including both ends) or None."""
        if is_target(start):
            return [start]
        if cut is not None and cut(start):
            return None
        parent = {start: None}
        queue = [start]
        while queue:
            nxt = []
            for q in queue:
                for c in self.sorted_callees(q):
                    if c in parent:
                        continue
                    parent[c] = q
                    if is_target(c):
                        path = [c]
                        while path[-1] is not None:
                            p = parent[path[-1]]
                            if p is None:
                                break
                            path.append(p)
                        path.reverse()
                        return path
                    if cut is None or not cut(c):
                        nxt.append(c)
            queue = nxt
        return None
