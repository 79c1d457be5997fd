"""tools/unreached.py: the line trace, in this thread and a started one, and the statements it lists as never run."""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Line numbers matter below: each statement the calls in _run leave unrun is named by its line.
MODULE = '''\
import threading


def checked(x):
    """A docstring, which compiles to no code."""
    total = 0

    def bump():
        nonlocal total
        total += 1

    try:
        bump()
    except KeyError:
        return None
    if x > 0:
        return total
    raise ValueError("x must be positive, "
                     f"got {x}")


def never():
    return [i
            for i in range(3)]


def in_thread(out):
    thread = threading.Thread(target=lambda: out.append(checked(1)))
    thread.start()
    thread.join()
'''


@pytest.fixture
def unreached(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("unreached")


def _run(tmp_path):
    """Loads MODULE from tmp_path/traced.py and calls checked(1) in a thread it starts; returns what it appended."""
    path = tmp_path / "traced.py"
    path.write_text(MODULE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("traced", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = []
    module.in_thread(out)
    return out


def test_a_trace_records_the_lines_run_in_the_root_only(unreached, tmp_path):
    before = sys.gettrace()
    result, lines = unreached.trace(lambda: _run(tmp_path), tmp_path)
    assert result == [1]  # the thread's call returned total
    assert set(lines) == {os.path.realpath(tmp_path / "traced.py")}  # not this file, nor "<frozen ...>"
    ran = lines[os.path.realpath(tmp_path / "traced.py")]
    assert {10, 13, 16, 17, 28, 29} <= ran  # the thread ran checked, and checked ran bump
    assert not {14, 15, 18, 23} & ran
    assert sys.gettrace() is before


def test_the_unrun_statements_are_listed_by_line_without_docstrings_or_declarations(unreached, tmp_path):
    _, lines = unreached.trace(lambda: _run(tmp_path), tmp_path)
    found = unreached.unreached(tmp_path / "traced.py", lines[os.path.realpath(tmp_path / "traced.py")])
    assert found == [(14, "except KeyError:"), (15, "return None"), (18, 'raise ValueError("x must be positive, "'),
                     (23, "return [i")]


def test_a_file_that_never_ran_lists_every_function_body_statement(unreached, tmp_path):
    (tmp_path / "traced.py").write_text(MODULE, encoding="utf-8")
    found = [line for line, _ in unreached.unreached(tmp_path / "traced.py", set())]
    assert found == [6, 8, 10, 12, 13, 14, 15, 16, 17, 18, 23, 28, 29, 30]
