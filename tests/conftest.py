"""Load every local module a Tier-1 session can load, before the first test draws.

Hypothesis mixes into its draws literals it reads from the source of each loaded local module, so a
derandomized property drew other examples depending on which test files were collected. Loading the package
and the tools the tests import here gives every selection the same pool (tests/test_draws.py checks it).
Files under tests/ are never read for literals, so they are not loaded here; nor is tools/chunk_sweep.py,
which sets BLAS thread variables when it is imported.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

for path in sorted((ROOT / "src" / "ionblimp").glob("*.py")):
    importlib.import_module("ionblimp" if path.stem == "__init__" else f"ionblimp.{path.stem}")
sys.path.insert(0, str(ROOT / "tools"))
try:
    importlib.import_module("bench_ab")
    importlib.import_module("bench_cold")
    importlib.import_module("bench_suite")
    importlib.import_module("unreached")
finally:
    sys.path.remove(str(ROOT / "tools"))
