"""Print the statements of ``src/hgspec`` that the test suite never runs.

Run from anywhere as ``python tests/line_trace.py``.  A ``sys.settrace``
tracer (and ``threading.settrace``, for the suite's worker threads)
follows only the frames whose code lives in ``src/hgspec``, records the
lines they run, and ``pytest.main(["-q", "tests"])`` runs the suite
in-process under it.  Then, per module, every statement in a function
or method body whose lines never ran is printed with its line number
and source line.  A compound statement counts as run when any of its
lines ran; its unreached branches are listed as their own statements.
Module and class level code, and docstrings, are left out.  Code that
runs only in a subprocess the suite starts is not traced, so it shows
here as never run.

The listing is printed, not gated: the script exits 0 whatever the
tests did.  Tracing roughly doubles the suite's time, so a test with a
wall-clock budget may fail under it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hgspec"


def body_statements(tree):
    """Each statement in a function or method body, docstrings left out,
    with nested blocks and nested functions included."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if (isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        stack = list(body)
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # a nested function is walked on its own
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, (ast.excepthandler, ast.match_case)):
                    stack.extend(child.body)


def never_run(path, ran):
    """The sorted (line, source) of the body statements none of whose
    lines is in ``ran``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    missed = {}
    for stmt in body_statements(ast.parse(source)):
        if not any(line in ran
                   for line in range(stmt.lineno, stmt.end_lineno + 1)):
            missed[stmt.lineno] = lines[stmt.lineno - 1].strip()
    return sorted(missed.items())


def main():
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    ran = {path: set() for path in sorted(PACKAGE.glob("*.py"))}
    tracers = {}

    def local(lines):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        if name not in tracers:
            tracers[name] = local(ran.setdefault(Path(name), set()))
        return tracers[name]

    import pytest

    os.chdir(ROOT)
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path, lines in ran.items():
        missed = never_run(path, lines)
        total += len(missed)
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} never run")
        for lineno, text in missed:
            print(f"  {lineno:5d}  {text}")
    print(f"\n{total} statements in function bodies never run "
          f"(pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
