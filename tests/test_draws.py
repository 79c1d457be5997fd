"""A derandomized property draws the same examples whichever test files a session selects (see conftest.py)."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]


def draws():
    """The examples one small derandomized property draws in this interpreter."""
    seen = []

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def record(x):
        seen.append(x)

    record()
    return seen


# Collects the test files named by its arguments, which loads what they import (and conftest.py), then prints
# the property's draws.
_CHILD = """import sys
import pytest
assert pytest.main(["-qq", "-p", "no:cacheprovider", "--collect-only", *sys.argv[1:]]) == 0
from test_draws import draws
print(draws())
"""


def test_a_derandomized_property_draws_alike_for_every_selection():
    # The child collects test_pcg64.py alone, which imports one ionblimp module; this session has collected
    # this file, which imports none, or more. Without conftest.py the two pools, and so the draws, differ.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-c", _CHILD, "tests/test_pcg64.py"], cwd=ROOT,
                           capture_output=True, text=True, env=env, check=True)
    assert child.stdout.splitlines()[-1] == repr(draws())
