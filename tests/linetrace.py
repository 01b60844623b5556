"""Run the test suite under a line tracer, and fail if a statement of the
btt package did not run.

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

The verdict is coverage alone: the suite's own result is printed but does
not decide the exit status, because tracing slows every line and allocates
on every event, so time budgets and allocation counts can fail under it.
Run the suite without the tracer to judge the tests.

A statement is an AST statement other than a def, a class, an import, a
string constant (a docstring), global and nonlocal. A simple statement
counts as run when any of its lines ran, a compound one when a line of its
header did (up to its first body statement). Only the standard library is
used: sys.settrace, and threading.settrace for threads that the suite
starts. Code that btt generates at run time has no file, so it is not seen
here.
"""

import ast
import importlib.util
import sys
import threading
from pathlib import Path

# Statements that may stay unrun, each with its reason, as "<file>:<line>".
ALLOWED = {
    "cli.py:183": "sys.exit(main()) runs only under 'python -m btt.cli', in a process of its "
                  "own, which an in-process tracer cannot follow",
}

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def statements(path):
    """Each statement of ``path``: its first line, and the lines any of
    which shows that it ran."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        # a compound statement's header, and for a try, whose header may
        # run no code, its first body line too
        end = body[0].lineno - (not isinstance(node, ast.Try)) if body else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return out


class Tracer:
    """Records each line that runs in a file under ``root``."""

    def __init__(self, root):
        self.root = str(root)
        self.ran = {}  # file -> lines that ran

    def __call__(self, frame, event, arg):
        file = frame.f_code.co_filename
        if not file.startswith(self.root):
            return None
        ran = self.ran.setdefault(file, set())

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line

        return line


def main(argv):
    spec = importlib.util.find_spec("btt")  # finds the package without running it
    root = Path(spec.submodule_search_locations[0]).resolve()
    tracer = Tracer(root)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"linetrace: the suite exited {int(status)}; only coverage decides this run")

    unrun = {}
    total = 0
    for path in sorted(root.rglob("*.py")):
        ran = tracer.ran.get(str(path), set())
        for first, lines in statements(path):
            total += 1
            if ran.isdisjoint(lines):
                unrun[f"{path.relative_to(root)}:{first}"] = path
    missing = sorted(unrun.keys() - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - unrun.keys())
    print(f"linetrace: {total - len(unrun)} of {total} statements of {root} ran")
    for where in missing:
        line = unrun[where].read_text(encoding="utf-8").splitlines()[int(where.split(":")[1]) - 1]
        print(f"linetrace: not run: {where}: {line.strip()}")
    for where in stale:
        print(f"linetrace: allowed but ran, or no statement: {where}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
