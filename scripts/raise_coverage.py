#!/usr/bin/env python3
"""List every ``raise`` statement of the package that no test runs.

Runs the test suite in this process under the standard library's line
counter (``trace``) and reports each ``raise`` line of
``src/mesostefan/*.py`` (found with ``ast``) whose count is zero.  Tests that
start a subprocess are not traced, so a refusal reached only that way counts
as unreached.  Exit status: 0 when every ``raise`` ran, 1 when some did not
or the suite failed.  Run it from anywhere:

    python scripts/raise_coverage.py
"""

import ast
import glob
import os
import sys
import sysconfig
import trace

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def raise_lines():
    """{path: sorted line numbers of its raise statements}."""
    lines = {}
    for path in sorted(glob.glob(os.path.join(SRC, "mesostefan", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        lines[path] = sorted(node.lineno for node in ast.walk(tree)
                             if isinstance(node, ast.Raise))
    return lines


def main() -> int:
    import pytest

    paths = sysconfig.get_paths()
    skip = {paths[k] for k in ("stdlib", "platstdlib", "purelib", "platlib")}
    tracer = trace.Trace(count=1, trace=0, ignoredirs=sorted(
        skip | {os.path.join(ROOT, "tests")}))
    code = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider",
                                        os.path.join(ROOT, "tests")])
    counts = {}
    for (filename, line), n in tracer.results().counts.items():
        key = (os.path.realpath(filename), line)
        counts[key] = counts.get(key, 0) + n
    every = raise_lines()
    unreached = [f"{os.path.relpath(path, ROOT)}:{line}"
                 for path, lines in every.items() for line in lines
                 if not counts.get((os.path.realpath(path), line))]
    total = sum(map(len, every.values()))
    print(f"{total - len(unreached)} of {total} raise statements reached; "
          f"unreached: {', '.join(unreached) or 'none'}")
    if code != 0:
        print(f"the test suite failed (pytest exit {int(code)})")
    return 1 if unreached or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
