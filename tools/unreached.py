"""List the statements of ``src/ionblimp`` that a test run never executes.

    PYTHONPATH=src python3 tools/unreached.py [pytest arguments]

Runs pytest in this process (by default the Tier-1 suite, ``tests/``) under a
line tracer, ``sys.settrace`` and ``threading.settrace``, that records the
lines run in files under ``src/ionblimp``. Then it prints each statement in a
function body whose own lines never ran, one ``file:line: source`` line each,
in file and line order. A compound statement's own lines are its header (an
``if`` test, a ``for`` target and iterable, an ``except`` clause), not its
body. Docstrings and ``nonlocal`` or ``global`` declarations compile to no
code, so they are left out. Code run in a child interpreter (a test's
subprocess) is not traced, so a statement only a child reaches is listed. The
exit status is pytest's. No coverage package is needed.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ionblimp"


def trace(run, root):
    """(run(), lines): run() under a line tracer, in this thread and in the threads it starts; lines maps the real
    path of each file under root that ran code to the set of its line numbers that ran."""
    root = os.path.realpath(root) + os.sep
    lines, wanted, pending = defaultdict(set), {}, {}  # pending: id(code) -> (code, its lines not yet run)

    def on_line(frame, event, arg):
        if event == "line":
            code = frame.f_code
            lines[code.co_filename].add(frame.f_lineno)
            left = pending[id(code)][1]
            left.discard(frame.f_lineno)
            if not left:  # every line of this code has run: stop tracing the frame
                return None
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if (inside := wanted.get(name := code.co_filename)) is None:  # "<string>" or "<frozen ...>" names no file
            inside = wanted[name] = os.path.isfile(name) and os.path.realpath(name).startswith(root)
        if not inside:
            return None
        if id(code) not in pending:  # the code is kept, so its id is not reused; its first line is the def line
            pending[id(code)] = (code, {line for *_, line in code.co_lines() if line} - {code.co_firstlineno})
        return on_line if pending[id(code)][1] else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, {os.path.realpath(name): ran for name, ran in lines.items()}


def _statements(body):
    """Each statement in body and, recursively, in its clauses (except handlers too), but not in a nested def or
    class body, which ast.walk reaches on its own."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for name in ("body", "handlers", "orelse", "finalbody"):
                yield from _statements(getattr(stmt, name, ()))


def _own_lines(stmt) -> range:
    """The lines of stmt before its first clause: all of a simple statement, the header of a compound one, and a
    def or class from its first decorator."""
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    clauses = [s.lineno for name in ("body", "handlers", "orelse", "finalbody") for s in getattr(stmt, name, ())]
    return range(first, max(first, min(clauses, default=stmt.end_lineno + 1) - 1) + 1)


def unreached(path, ran) -> list:
    """(line, source) of each function-body statement in the file at path with none of its own lines in ran, the
    set of line numbers that ran, in line order; docstrings and nonlocal and global declarations are left out."""
    source = Path(path).read_text(encoding="utf-8")
    text, found = source.splitlines(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
            for stmt in _statements(body):
                own = _own_lines(stmt)
                if not isinstance(stmt, (ast.Nonlocal, ast.Global)) and ran.isdisjoint(own):
                    found.append((own[0], text[own[0] - 1].strip()))
    return sorted(found)


def main(argv=None) -> int:
    import pytest
    args = sys.argv[1:] if argv is None else list(argv)
    sys.path.insert(0, str(ROOT / "src"))
    status, lines = trace(lambda: pytest.main(args or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]),
                          PACKAGE)
    for path in sorted(PACKAGE.glob("*.py")):
        for line, source in unreached(path, lines.get(os.path.realpath(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
