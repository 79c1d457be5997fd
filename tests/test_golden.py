"""Golden trajectories of the committed demo scenarios, and golden reports of the other verbs.

Each flight fixture in ``tests/golden/`` holds every 100th CSV row and the
summary of one ``demos/scenarios/*.cfg`` run. ``reports.json`` holds the
stdout and stderr of each ``REPORTS`` command: the key=value reports of
``linearize`` and ``certify-gains`` and the tables of ``thruster-map`` and
``step-response``. The tests rerun each through the CLI and compare numbers
at rtol = atol = 1e-9, text exactly, so a refactor may move the last bits of
a result but not its physics or its format.

Regenerate the fixtures (only when a change of results is intended) with
``PYTHONPATH=src python tests/test_golden.py [NAME ...]``: the named fixtures
(``reports`` among them), or all of them when none is given. It prints
nothing on success. CI regenerates them all and fails if any differs from
the committed file.
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from ionblimp.cli import main
from ionblimp.harness import _PARAMS_SCHEMA, SCENARIO_SCHEMA, read_config

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"
PARAMS = "demos/params/trim_hold.cfg"
GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ("hover", "cruise", "heading_step", "trim_hold", "envelope")
STRIDE = 100
TOL = 1e-9

# Each report command's argv; a demos/ path is relative to the repository root. {header_only} is a params file
# of the config header alone: every default, under which the (0, 1.5) pair's Lyapunov system is singular.
REPORTS = {
    "linearize": ["linearize", PARAMS],
    "certify-gains-grid": ["certify-gains", PARAMS, "--k1=-2:4:7", "--k2=-2:4:7"],
    "certify-gains-pair": ["certify-gains", PARAMS, "--k1", "0.0", "--k2", "1.5"],
    "certify-gains-singular": ["certify-gains", "{header_only}", "--k1", "0", "--k2", "1.5"],
    "thruster-map-throttle": ["thruster-map", "throttle"],
    "thruster-map-spacing-dual": ["thruster-map", "spacing-dual"],
    "thruster-map-extrapolated": ["thruster-map", "spacing-dual", "--at", "0.028"],
    "step-response": ["step-response", "0.9828"],
}


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


def run_report(argv: list, tmp_dir: Path) -> dict:
    """One REPORTS command through the CLI: its stdout and stderr lines."""
    header_only = tmp_dir / "header_only.cfg"
    header_only.write_text("# blimpsim-config v1\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(ROOT / arg) if arg.startswith("demos/") else arg.format(header_only=header_only)
                     for arg in argv])
    assert code == 0, err.getvalue()
    assert out.getvalue().endswith("\n")
    return {"argv": argv, "stdout": out.getvalue().splitlines(), "stderr": err.getvalue().splitlines()}


def _same_line(expected: str, actual: str) -> bool:
    """Separators (=, comma, blanks) exactly; each token between them by _close."""
    want, got = re.split(r"([=,\s]+)", expected), re.split(r"([=,\s]+)", actual)
    return len(want) == len(got) and all(
        (w == g) if i % 2 else _close(w, g) for i, (w, g) in enumerate(zip(want, got)))


@pytest.mark.parametrize("name", REPORTS)
def test_report_matches_golden(name, tmp_path):
    golden = json.loads((GOLDEN / "reports.json").read_text(encoding="utf-8"))[name]
    run = run_report(REPORTS[name], tmp_path)
    assert run["argv"] == golden["argv"]
    for stream in ("stdout", "stderr"):
        assert len(run[stream]) == len(golden[stream]), stream
        mismatched = [(want, got) for want, got in zip(golden[stream], run[stream]) if not _same_line(want, got)]
        assert not mismatched, f"{stream} lines differ: {mismatched[:3]}"


def test_the_trim_hold_grid_search_is_the_scenarios_inner_loop(tmp_path):
    # The design loop, linearize -> certify -> fly: the grid search on trim_hold's params and trim prints, as
    # its first six lines, the [inner_loop] section demos/scenarios/trim_hold.cfg flies.
    scenario = read_config(SCENARIOS / "trim_hold.cfg", SCENARIO_SCHEMA)
    params = read_config(ROOT / PARAMS, _PARAMS_SCHEMA)
    assert params["params"] == scenario["params"]
    assert (params["trim"]["speed"], params["trim"]["thrust"]) == (scenario["inner_loop"]["trim_speed"],
                                                                   scenario["inner_loop"]["trim_thrust"])
    design = run_report(REPORTS["certify-gains-grid"], tmp_path)["stdout"][:6]
    assert design == [f"{key}={value!r}" for key, value in scenario["inner_loop"].items()]


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
    import tempfile

    unknown = set(sys.argv[1:]) - {*NAMES, "reports"}
    if unknown:
        sys.exit(f"unknown fixture(s) {sorted(unknown)}; choose from {', '.join(NAMES)}, reports")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        if not sys.argv[1:] or "reports" in sys.argv[1:]:
            reports = {name: run_report(argv, Path(tmp)) for name, argv in REPORTS.items()}
            (GOLDEN / "reports.json").write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")
        for name in [name for name in sys.argv[1:] or NAMES if name != "reports"]:
            with contextlib.redirect_stdout(io.StringIO()):  # each run's summary is in its fixture
                run = run_sampled(name, Path(tmp))
            rows = ",\n  ".join(json.dumps(row) for row in run["rows"])
            text = (f'{{"stride": {STRIDE},\n "columns": {json.dumps(run["columns"])},\n'
                    f' "rows": [\n  {rows}\n ],\n "summary": {json.dumps(run["summary"], indent=1)}\n}}\n')
            (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    sys.exit(0)
