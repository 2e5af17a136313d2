#!/usr/bin/env python3
"""Validate a crev_analyze JSON report against its schema.

Checks the deterministic report emitted by `crev_analyze --report`
(the artifact the gating CI job uploads):

  - top level is an object with exactly the keys tool / version /
    rules / findings / waivers_used / stats;
  - "tool" is "crev_analyze" and "version" a non-empty string;
  - "rules" is the one analysis pass, noyield-reach;
  - every finding carries string rule/function/file/message, a
    positive integer line, a non-empty callpath of strings, a rule
    drawn from "rules", and a forward-slash relative file path;
  - findings are sorted by (rule, file, line, function, message) so
    the report is byte-deterministic;
  - "waivers_used" is a sorted list of strings;
  - "stats" holds non-negative integers for files / functions /
    edges / unresolved_call_sites / findings, and stats.findings
    equals len(findings);
  - nothing host-dependent: no timestamp-like keys, no absolute
    paths.

Exits non-zero with a diagnostic on the first malformed entry.
Usage: check_analyze_schema.py REPORT.json
"""

import json
import sys

EXPECTED_RULES = ["noyield-reach"]
TOP_KEYS = {"tool", "version", "rules", "findings", "waivers_used",
            "stats"}
STAT_KEYS = {"files", "functions", "edges", "unresolved_call_sites",
             "findings"}
FORBIDDEN_KEY_WORDS = ("time", "date", "host")


def fail(msg, i=None, item=None):
    where = "" if i is None else f" (finding {i}: {json.dumps(item)[:200]})"
    print(f"check_analyze_schema: FAIL: {msg}{where}", file=sys.stderr)
    sys.exit(1)


def check_finding(i, f, rules):
    if not isinstance(f, dict):
        fail("finding is not an object", i, f)
    for key in ("rule", "function", "file", "message"):
        v = f.get(key)
        if not isinstance(v, str) or not v:
            fail(f'missing or empty string "{key}"', i, f)
    if f["rule"] not in rules:
        fail(f'rule "{f["rule"]}" is not a declared rule', i, f)
    line = f.get("line")
    if not isinstance(line, int) or isinstance(line, bool) or line < 1:
        fail('missing or non-positive integer "line"', i, f)
    cp = f.get("callpath")
    if not isinstance(cp, list) or not cp \
            or not all(isinstance(s, str) and s for s in cp):
        fail('"callpath" is not a non-empty list of strings', i, f)
    if f["file"].startswith("/") or "\\" in f["file"]:
        fail('"file" is not a forward-slash relative path', i, f)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {argv[1]}: {e}")
    if not isinstance(doc, dict):
        fail("top level is not an object")
    if set(doc) != TOP_KEYS:
        fail(f"top-level keys {sorted(doc)} != {sorted(TOP_KEYS)}")
    for key in doc:
        if any(w in key.lower() for w in FORBIDDEN_KEY_WORDS):
            fail(f'host-dependent-looking top-level key "{key}"')

    if doc["tool"] != "crev_analyze":
        fail(f'"tool" is {doc["tool"]!r}, expected "crev_analyze"')
    if not isinstance(doc["version"], str) or not doc["version"]:
        fail('"version" is not a non-empty string')
    if doc["rules"] != EXPECTED_RULES:
        fail(f'"rules" {doc["rules"]} != {EXPECTED_RULES}')

    findings = doc["findings"]
    if not isinstance(findings, list):
        fail('"findings" is not a list')
    for i, f in enumerate(findings):
        check_finding(i, f, set(doc["rules"]))
    keys = [(f["rule"], f["file"], f["line"], f["function"],
             f["message"]) for f in findings]
    if keys != sorted(keys):
        fail("findings are not sorted by "
             "(rule, file, line, function, message)")

    waivers = doc["waivers_used"]
    if not isinstance(waivers, list) \
            or not all(isinstance(w, str) and w for w in waivers) \
            or waivers != sorted(waivers):
        fail('"waivers_used" is not a sorted list of strings')

    stats = doc["stats"]
    if not isinstance(stats, dict) or set(stats) != STAT_KEYS:
        fail(f'"stats" keys {sorted(stats) if isinstance(stats, dict) else stats} '
             f"!= {sorted(STAT_KEYS)}")
    for key, v in stats.items():
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            fail(f'stats.{key} is not a non-negative integer')
    if stats["findings"] != len(findings):
        fail(f'stats.findings {stats["findings"]} != '
             f"{len(findings)} findings")

    print(f"check_analyze_schema: OK: {len(findings)} finding(s), "
          f"{stats['functions']} functions, {stats['edges']} edges, "
          f"{len(waivers)} waiver(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
