"""Output checks: seed-0 goldens and invariants that hold for every seed.

Goldens are compared number by number at ``RTOL`` with the absolute floor
``ATOL``, never byte for byte, so a faster implementation that changes the
last bits of a trajectory still passes. ``ATOL`` covers values that are
zero up to rounding (sliding variables and Lyapunov rates once the SMC
loop chatters about s = 0). Monte-Carlo estimates are not pinned by a
golden: a faster sampler may draw in another order. They are checked
against the closed form instead.

Run ``python3 perfbench/check.py`` to rewrite the goldens from seed 0.
"""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9
ATOL = 1e-9
CSV_STRIDE = 100  # every 100th CSV row is kept in the golden
ORACLE_TOL = 0.01  # Monte-Carlo vs closed form, relative (acceptance criterion 4)
REACH_LEVEL = 1e-3  # |s| below which the harness counts the surface as reached
REACH_SLACK = 1.1  # allowed ratio of reaching time to its analytic bound


def parse_kv(text: str) -> dict:
    """key=value lines as printed by the CLI, values kept as text."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _close(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def _compare_kv(section: str, got: dict, want: dict) -> list:
    if got.keys() != want.keys():
        return [f"{section}: keys differ from golden: {sorted(got.keys() ^ want.keys())}"]
    return [f"{section}.{key}: {got[key]} != golden {want[key]}"
            for key in want if not _close(got[key], want[key])]


def _compare_rows(section: str, got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"{section}: {len(got)} rows, golden has {len(want)}"]
    failures = []
    for i, (row, ref) in enumerate(zip(got, want)):
        if len(row) != len(ref) or not all(_close(a, b) for a, b in zip(row, ref)):
            failures.append(f"{section}[{i}]: {row} != golden {ref}")
    return failures


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def compare_golden(workload: str, outputs: dict) -> list:
    """Failures of a seed-0 run's outputs against the stored golden."""
    golden = json.loads(golden_path(workload).read_text(encoding="utf-8"))
    failures = []
    for section, want in golden.items():
        got = outputs.get(section)
        if got is None:
            failures.append(f"{section}: missing from outputs")
        elif isinstance(want, dict):
            failures += _compare_kv(section, got, want)
        else:
            failures += _compare_rows(section, got, want)
    return failures


def csv_rows(path) -> list:
    """All CSV rows (header first) as lists of strings."""
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def finite_states(result) -> list:
    states = result.states()
    if np.all(np.isfinite(states)):
        return []
    return [f"non-finite state values in {int(np.sum(~np.isfinite(states)))} entries"]


def step_count(scenario, result, summary: dict) -> list:
    expected = int(round(scenario.duration / scenario.dt))
    if len(result.records) != expected + 1 or summary.get("steps") != str(expected):
        return [f"{len(result.records)} records / steps={summary.get('steps')}, expected {expected} steps"]
    return []


def smc_reaching(scenario, result, t_const: float, reaching_time_bound) -> list:
    """Once the reference is constant, |s| reaches REACH_LEVEL within its bound and stays there."""
    records = result.records
    start = next(i for i, rec in enumerate(records) if rec.t >= t_const)
    s_start = records[start].s
    bound = max(reaching_time_bound(scenario.smc.gains, float(ch)) for ch in s_start)
    s_inf = np.array([np.max(np.abs(rec.s)) for rec in records[start:]])
    below = np.flatnonzero(s_inf < REACH_LEVEL)
    if below.size == 0:
        return [f"|s| never fell below {REACH_LEVEL} after t={t_const:.3f} s"]
    reach = records[start + below[0]].t - records[start].t
    failures = []
    if reach > REACH_SLACK * bound + scenario.dt:
        failures.append(f"reaching took {reach:.4f} s, bound {bound:.4f} s")
    if np.max(s_inf[below[0]:]) >= REACH_LEVEL:
        failures.append(f"|s| left the {REACH_LEVEL} band after reaching")
    return failures


def oracle_error(mc, closed) -> float:
    return float(np.linalg.norm(np.asarray(mc) - closed) / np.linalg.norm(closed))


def write_goldens(workloads) -> None:
    """Run each workload once at seed 0 in this process and store its outputs."""
    import tempfile

    import gen
    import worker

    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads or gen.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            job = {"mode": "run", "workload": workload, "seed": 0, "run_id": 0,
                   "plan": gen.generate(workload, 0, tmp), "check_golden": False}
            result = worker.run_job(job)
        if result["failures"]:
            raise SystemExit(f"{workload}: {result['failures']}")
        outputs = result["outputs"]
        golden_path(workload).write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {golden_path(workload)}")


if __name__ == "__main__":
    write_goldens(sys.argv[1:])
