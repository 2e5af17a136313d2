"""crev_analyze: interprocedural call-graph analysis for the
Cornucopia Reloaded simulator (DESIGN.md section 16).

Where crev_lint checks lines, crev_analyze checks paths: it builds a
repo-wide call graph from a token-level C++ front end and runs one
reachability pass over it (no-yield reachability).
"""

VERSION = "2.0"
