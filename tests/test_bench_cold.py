"""tools/bench_cold.py: its case table, one fresh-interpreter run, and the per-case summary."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_cold(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # it imports bench_ab as a sibling
    return importlib.import_module("bench_cold")


def test_cases_are_the_demo_scenarios_and_the_cli_import(bench_cold):
    assert list(bench_cold.cases()) == ["cruise", "heading_step", "hover", "trim_hold", "import_cli"]


def test_run_case_times_a_fresh_interpreter_and_hashes_its_output(bench_cold):
    wall, digest = bench_cold.run_case(ROOT, ["import sys; print(sys.argv[1])", "x"])
    again = bench_cold.run_case(ROOT, ["import sys; print(sys.argv[1])", "x"])[1]
    other = bench_cold.run_case(ROOT, ["import sys; print(sys.argv[1])", "y"])[1]
    assert wall > 0.0 and digest == again != other
    with pytest.raises(RuntimeError, match="exited 3"):
        bench_cold.run_case(ROOT, ["raise SystemExit(3)"])


def test_summarize_counts_wins_and_output_identity(bench_cold):
    pairs = [{"first": "base", "base": 0.40, "head": 0.35, "digest": "a"},
             {"first": "head", "base": 0.38, "head": 0.39, "digest": "a"},
             {"first": "base", "base": 0.41, "head": 0.36, "digest": "a"}]
    case = bench_cold.summarize(pairs)
    assert (case["wins"], case["losses"]) == (2, 1)
    assert case["base"]["median"] == 0.40 and case["head"]["median"] == 0.36
    assert case["head_over_base"] == pytest.approx(0.9) and case["identical_outputs"]
    assert case["median_head_minus_base"] == pytest.approx(-0.05)
    assert not bench_cold.summarize([*pairs, {**pairs[0], "digest": None}])["identical_outputs"]
    assert not bench_cold.summarize([*pairs, {**pairs[0], "digest": "b"}])["identical_outputs"]
