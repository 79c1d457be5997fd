"""Golden trajectories of the committed demo scenarios.

Each fixture in ``tests/golden/`` holds every 100th CSV row and the summary
of one ``demos/scenarios/*.cfg`` run. The test reruns the scenario through
the CLI and compares numbers at rtol = atol = 1e-9, text exactly, so a
refactor may move the last bits of a trajectory but not its physics.

Regenerate the fixtures (only when a change of results is intended) with
``PYTHONPATH=src python tests/test_golden.py [NAME ...]``: the named fixtures,
or all of ``NAMES`` when none is given. It prints nothing on success. CI
regenerates them all and fails if any differs from the committed file.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from ionblimp.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ("hover", "cruise", "heading_step", "trim_hold", "envelope")
STRIDE = 100
TOL = 1e-9


def run_sampled(name: str, out_dir: Path) -> dict:
    """Run one demo scenario with its outputs in out_dir; sample the CSV."""
    csv_path, summary_path = out_dir / f"{name}.csv", out_dir / f"{name}.txt"
    code = main(["simulate", str(SCENARIOS / f"{name}.cfg"),
                 "--csv", str(csv_path), "--summary", str(summary_path)])
    assert code == 0
    header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
    summary = dict(line.split("=", 1) for line in summary_path.read_text(encoding="utf-8").splitlines())
    return {
        "stride": STRIDE,
        "columns": header.split(","),
        "rows": [row.split(",") for row in rows[::STRIDE]],
        "summary": summary,
    }


def _close(expected: str, actual: str) -> bool:
    try:
        want, got = float(expected), float(actual)
    except ValueError:
        return expected == actual
    if math.isinf(want) or math.isinf(got):
        return want == got
    return abs(got - want) <= TOL + TOL * abs(want)


@pytest.mark.parametrize("name", NAMES)
def test_demo_scenario_matches_golden(name, tmp_path):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    run = run_sampled(name, tmp_path)
    assert run["columns"] == golden["columns"]
    assert len(run["rows"]) == len(golden["rows"])
    for want_row, got_row in zip(golden["rows"], run["rows"]):
        mismatched = [col for col, want, got in zip(golden["columns"], want_row, got_row)
                      if not _close(want, got)]
        assert not mismatched, f"t={want_row[0]}: {mismatched} differ ({want_row} vs {got_row})"
    assert run["summary"].keys() == golden["summary"].keys()
    mismatched = [key for key, want in golden["summary"].items()
                  if not _close(want, run["summary"][key])]
    assert not mismatched, f"summary keys differ: {mismatched}"


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    unknown = set(sys.argv[1:]) - set(NAMES)
    if unknown:
        sys.exit(f"unknown fixture(s) {sorted(unknown)}; choose from {', '.join(NAMES)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sys.argv[1:] or NAMES:
            with contextlib.redirect_stdout(io.StringIO()):  # each run's summary is in its fixture
                run = run_sampled(name, Path(tmp))
            rows = ",\n  ".join(json.dumps(row) for row in run["rows"])
            text = (f'{{"stride": {STRIDE},\n "columns": {json.dumps(run["columns"])},\n'
                    f' "rows": [\n  {rows}\n ],\n "summary": {json.dumps(run["summary"], indent=1)}\n}}\n')
            (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    sys.exit(0)
