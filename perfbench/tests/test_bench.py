"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_declared_metrics_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *gen.WORKLOADS]:
        assert NAME.match(name), name


def _worker(job: dict) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_exactly(tmp_path):
    plan = gen.generate("full_6dof", 3, tmp_path)
    counts = []
    for run_id in (0, 1):
        job = {"mode": "trace", "workload": "full_6dof", "seed": 3, "plan": plan,
               "run_id": run_id, "spans": str(tmp_path / f"spans-{run_id}.npz")}
        layers = _worker(job)["layers"]
        counts.append({m: v for m, v in layers.items()
                       if spans.split_metric(m)[1] in spans.COUNT_KINDS})
    assert counts[0]["dynamics.full_derivatives.calls_per_step"] == 4.0
    assert counts[0] == counts[1]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smc_tracking", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
