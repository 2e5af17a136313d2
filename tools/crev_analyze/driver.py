"""Driver: file discovery, graph assembly, pass execution, report
emission, and the self-test.

Usage:
  python3 tools/crev_analyze [--compile-commands build/compile_commands.json]
                             [--report crev_analyze_report.json]
  python3 tools/crev_analyze --self-test

Exit status: 0 clean, 1 findings (or self-test failure), 2
usage/environment error.
"""

import argparse
import json
import os
import sys

from . import VERSION
from .cpptok import tokenize
from .extract import extract_file
from .callgraph import Graph, body_sites
from .facts import is_observer_file
from .passes import ALL_PASSES, RULES
from .report import build_report, render_report, write_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "analyze_fixtures")

COMPILE_COMMANDS_HINT = (
    "crev_analyze: configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON "
    "(cmake -B build -S . exports it by default here; any repo preset "
    "does too) and point --compile-commands at "
    "build/compile_commands.json")


class Context:
    """Everything the passes need: merged nodes, the graph, waivers."""

    def __init__(self, repo_root, fixture_dir):
        self.repo_root = repo_root
        self.fixture_dir = fixture_dir
        self.nodes = {}
        self.graph = Graph()
        self.annotations = {}
        self.waivers_used = set()
        self.stats = {}

    def relpath(self, path):
        if path.startswith(self.repo_root + os.sep):
            rel = os.path.relpath(path, self.repo_root)
        else:
            rel = os.path.basename(path)
        return rel.replace(os.sep, "/")

    def _waived_at(self, rule, path, line):
        ann = self.annotations.get(path, {})
        for li in (line, line - 1):
            if rule in ann.get(li, ()):
                self.waivers_used.add(
                    "%s:%d %s" % (self.relpath(path), li, rule))
                return True
        return False

    def fn_waived(self, rule, qname):
        fn = self.nodes[qname]["fn"]
        return self._waived_at(rule, fn.file, fn.line)

    def line_waived(self, rule, path, line):
        return self._waived_at(rule, path, line)

    def is_observer(self, qname):
        return is_observer_file(self.nodes[qname]["fn"].file,
                                self.repo_root, self.fixture_dir)


def analyze(paths, repo_root=REPO_ROOT, fixture_dir=FIXTURE_DIR):
    """Build the call graph over @p paths and run all passes.
    Returns (ctx, findings)."""
    ctx = Context(repo_root, fixture_dir)
    classes = {"NoYield"}
    per_file_funcs = []
    for p in sorted(paths):
        with open(p, "r", encoding="utf-8") as f:
            text = f.read()
        toks, ann = tokenize(text)
        funcs, cls = extract_file(toks, p)
        classes |= cls
        ctx.annotations[p] = ann
        per_file_funcs.append((toks, funcs))

    # Merge definitions onto one node per qualified name (overloads
    # collapse; call sites union — the documented over-approximation).
    for toks, funcs in per_file_funcs:
        for fn in funcs:
            sites, windows = body_sites(toks, fn, classes)
            node = ctx.nodes.get(fn.qname)
            if node is None:
                node = {"fn": fn, "sites": [], "windows": [],
                        "window_calls": []}
                ctx.nodes[fn.qname] = node
                ctx.graph.add_node(fn.qname)
            woff = len(node["windows"])
            node["windows"].extend(windows)
            for s in sites:
                if s.window is not None:
                    s = s._replace(window=s.window + woff)
                node["sites"].append(s)

    ctx.graph.finalize_names()
    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        for s in node["sites"]:
            callees = ctx.graph.add_call(qname, s)
            if s.window is not None and callees:
                node["window_calls"].append((s, callees))

    findings = []
    for _rule, fn_pass in ALL_PASSES:
        findings.extend(fn_pass(ctx))

    ctx.stats = {
        "files": len(paths),
        "functions": len(ctx.nodes),
        "edges": sum(len(e) for e in ctx.graph.edges.values()),
        "unresolved_call_sites": ctx.graph.dropped,
        "findings": len(findings),
    }
    return ctx, findings


def tree_files():
    """Analysis covers src/ only, the simulator's own NoYield
    windows: tests open windows on purpose (sim_test parks inside one
    to check the scheduler's run-time assert)."""
    paths = []
    for root, _dirs, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for f in sorted(files):
            if f.endswith((".h", ".cc", ".cpp")):
                paths.append(os.path.join(root, f))
    return paths


def check_compile_commands(db_path, paths):
    with open(db_path, "r", encoding="utf-8") as f:
        db = json.load(f)
    compiled = {os.path.realpath(e["file"]) for e in db}
    return [p for p in paths
            if p.endswith(".cc") and os.path.realpath(p) not in compiled]


def print_findings(findings):
    for f in sorted(findings, key=lambda f: (f.rule, f.file, f.line,
                                             f.function, f.message)):
        print("%s:%d: [%s] %s: %s" % (f.file, f.line, f.rule,
                                      f.function, f.message))
        if len(f.callpath) > 1:
            print("    call path: %s" % " -> ".join(f.callpath))


# ---------------------------------------------------------------------
# Self-test.
# ---------------------------------------------------------------------

#: Exact expected edges of the callgraph mini-project (see
#: tools/analyze_fixtures/callgraph/). The virtual call through
#: `Base &b` edges to every overrider — the documented dispatch
#: over-approximation — and the std::function field produces no edge
#: at all (it is counted in unresolved_call_sites instead).
CALLGRAPH_EXPECTED_EDGES = [
    ("cgfix::Base::Base", "cgfix::Registry::note"),
    ("cgfix::DerivedA::work", "cgfix::free_helper"),
    ("cgfix::DerivedB::work", "cgfix::DerivedB::detail"),
    ("cgfix::Driver::run", "cgfix::Base::work"),
    ("cgfix::Driver::run", "cgfix::DerivedA::work"),
    ("cgfix::Driver::run", "cgfix::DerivedB::work"),
    ("cgfix::Driver::run", "cgfix::overloaded"),
    ("cgfix::Driver::runAll", "cgfix::Driver::run"),
    ("cgfix::free_helper", "cgfix::overloaded"),
    ("cgfix::make_driver", "cgfix::Base::Base"),
]
CALLGRAPH_EXPECTED_UNRESOLVED = 2


def _fixture_paths(*names):
    return [os.path.join(FIXTURE_DIR, n) for n in names]


def run_self_test():
    ok = True

    # 1. Every pass fixture must fail its own pass.
    for rule in RULES:
        fixture = os.path.join(FIXTURE_DIR, rule + ".cc")
        if not os.path.exists(fixture):
            print("self-test: missing fixture for rule %s" % rule)
            ok = False
            continue
        _ctx, findings = analyze([fixture])
        got = {f.rule for f in findings}
        if rule not in got:
            print("self-test: fixture %s did NOT fail pass %s (got %s)"
                  % (os.path.basename(fixture), rule,
                     sorted(got) or "clean"))
            ok = False
        else:
            print("self-test: %-20s fails as required" % rule)

    # 2. The waiver fixture trips every pass but waives every finding.
    waiver = os.path.join(FIXTURE_DIR, "waivers.cc")
    if os.path.exists(waiver):
        ctx, findings = analyze([waiver])
        if findings:
            print("self-test: waiver fixture raised:")
            print_findings(findings)
            ok = False
        elif len(ctx.waivers_used) < len(RULES):
            print("self-test: waiver fixture used only %d waiver(s): %s"
                  % (len(ctx.waivers_used), sorted(ctx.waivers_used)))
            ok = False
        else:
            print("self-test: %-20s clean as required" % "waivers")
    else:
        print("self-test: missing waivers.cc fixture")
        ok = False

    # 3. The clean-splice fixture pins the NoYield/accrue cut policy
    #    (a synthetic NoYield window around a queue detach, charging
    #    via the noyield-aware accrue): it must stay clean.
    clean = os.path.join(FIXTURE_DIR, "clean_splice.cc")
    if os.path.exists(clean):
        _ctx, findings = analyze([clean])
        if findings:
            print("self-test: clean_splice fixture raised:")
            print_findings(findings)
            ok = False
        else:
            print("self-test: %-20s clean as required" % "clean_splice")
    else:
        print("self-test: missing clean_splice.cc fixture")
        ok = False

    # 4. Call-graph extractor ground truth.
    cg_dir = os.path.join(FIXTURE_DIR, "callgraph")
    cg_paths = []
    if os.path.isdir(cg_dir):
        for f in sorted(os.listdir(cg_dir)):
            if f.endswith((".h", ".cc")):
                cg_paths.append(os.path.join(cg_dir, f))
    if not cg_paths:
        print("self-test: missing callgraph fixture project")
        ok = False
    else:
        ctx, _findings = analyze(cg_paths)
        got_edges = sorted(
            (caller, callee)
            for caller, callees in ctx.graph.edges.items()
            for callee in callees)
        if got_edges != sorted(CALLGRAPH_EXPECTED_EDGES):
            print("self-test: callgraph edges mismatch")
            for e in sorted(set(got_edges)
                            - set(CALLGRAPH_EXPECTED_EDGES)):
                print("  unexpected: %s -> %s" % e)
            for e in sorted(set(CALLGRAPH_EXPECTED_EDGES)
                            - set(got_edges)):
                print("  missing:    %s -> %s" % e)
            ok = False
        elif ctx.graph.dropped != CALLGRAPH_EXPECTED_UNRESOLVED:
            print("self-test: callgraph unresolved-site count %d != %d"
                  % (ctx.graph.dropped, CALLGRAPH_EXPECTED_UNRESOLVED))
            ok = False
        else:
            print("self-test: %-20s edges match exactly" % "callgraph")

    # 5. Report determinism: two independent runs over the fixtures
    #    must render byte-identical reports.
    all_fix = [os.path.join(FIXTURE_DIR, f)
               for f in sorted(os.listdir(FIXTURE_DIR))
               if f.endswith(".cc")]
    renders = []
    for _ in range(2):
        ctx, findings = analyze(all_fix)
        renders.append(render_report(build_report(
            findings, ctx.stats, ctx.waivers_used)))
    if renders[0] != renders[1]:
        print("self-test: report is not byte-deterministic")
        ok = False
    else:
        print("self-test: %-20s byte-identical across runs" % "report")

    return ok


def main(argv):
    ap = argparse.ArgumentParser(
        prog="crev_analyze",
        description="interprocedural call-graph analysis "
                    "(DESIGN.md section 16)")
    ap.add_argument("--compile-commands", default=None,
                    help="compilation database; build-coverage check "
                         "is skipped with a note if the default is "
                         "absent, but an explicit path must exist")
    ap.add_argument("--report", default=None,
                    help="write the deterministic JSON report here")
    ap.add_argument("--self-test", action="store_true",
                    help="verify fixtures fail their passes and the "
                         "extractor matches the callgraph ground truth")
    ap.add_argument("--dump-graph", action="store_true",
                    help="print the resolved edges and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return 0 if run_self_test() else 1

    paths = tree_files()
    if not paths:
        print("crev_analyze: nothing to analyze under %s" % REPO_ROOT)
        return 2

    db = args.compile_commands
    if db is not None:
        if not os.path.exists(db):
            print("crev_analyze: error: %s not found" % db)
            print(COMPILE_COMMANDS_HINT)
            return 2
    else:
        db = os.path.join(REPO_ROOT, "build", "compile_commands.json")
        if not os.path.exists(db):
            print("crev_analyze: note: %s absent; skipping "
                  "build-coverage check"
                  % os.path.relpath(db, REPO_ROOT))
            db = None
    if db is not None:
        for p in check_compile_commands(db, paths):
            print("crev_analyze: warning: %s not in "
                  "compile_commands.json"
                  % os.path.relpath(p, REPO_ROOT))

    ctx, findings = analyze(paths)

    if args.dump_graph:
        for caller in sorted(ctx.graph.edges):
            for callee in ctx.graph.sorted_callees(caller):
                print("%s -> %s" % (caller, callee))
        return 0

    print_findings(findings)
    if args.report:
        write_report(build_report(findings, ctx.stats,
                                  ctx.waivers_used), args.report)
    if findings:
        print("crev_analyze: %d finding(s) across %d function(s)"
              % (len(findings), len({f.function for f in findings})))
        return 1
    print("crev_analyze: %d files, %d functions, %d edges clean (%s)"
          % (ctx.stats["files"], ctx.stats["functions"],
             ctx.stats["edges"], ", ".join(RULES)))
    if ctx.waivers_used:
        for w in sorted(ctx.waivers_used):
            print("crev_analyze: waiver applied: %s" % w)
    return 0
