"""tools/bench_cold.py: its case table, one fresh-interpreter run, the per-case summary and the env block."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_cold(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # it imports bench_ab as a sibling
    return importlib.import_module("bench_cold")


def test_cases_are_the_demo_scenarios_and_the_cli_import(bench_cold):
    names = list(bench_cold.cases(ROOT))
    assert names[:5] + names[-1:] == ["cruise", "envelope", "heading_step", "hover", "trim_hold", "import_cli"]
    assert names[5:-1] == list(bench_cold.REPORTS)


def test_the_report_cases_are_the_golden_reports_commands(bench_cold, monkeypatch):
    # The four REPORTS verbs that import numpy, as tests/test_golden.py runs them.
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    golden = importlib.import_module("test_golden").REPORTS
    for name, argv in bench_cold.REPORTS.items():
        assert golden[name.replace("_", "-")] == argv
        assert bench_cold.cases(ROOT)[name] == [bench_cold.BLIMPSIM, *argv]


def test_cases_are_the_scenarios_every_tree_holds(bench_cold, tmp_path):
    # A base that predates a scenario or the params file runs the others, not a file it lacks.
    (tmp_path / "demos" / "scenarios").mkdir(parents=True)
    for name in ("hover.cfg", "cruise.cfg", "old.cfg", "hover_ref.txt"):
        (tmp_path / "demos" / "scenarios" / name).write_text("", encoding="utf-8")
    assert list(bench_cold.cases(ROOT, tmp_path)) == ["cruise", "hover", "step_response", "import_cli"]
    assert bench_cold.cases(tmp_path, ROOT) == bench_cold.cases(ROOT, tmp_path)


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


def test_the_env_block_is_bench_abs_plus_the_load_after(bench_cold, monkeypatch, tmp_path):
    # Both BENCH files record the environment their runs inherited under the same keys.
    monkeypatch.setattr(bench_cold, "ROOT", tmp_path)
    monkeypatch.setattr(bench_cold, "export", lambda rev, kind="commit": tmp_path / rev)
    monkeypatch.setattr(bench_cold, "head_identity", lambda: {"tree": "head"})
    monkeypatch.setattr(bench_cold, "cases", lambda *trees: {})
    assert bench_cold.main(["--base", "base", "--label", "T"]) == 0
    doc = json.loads((tmp_path / "BENCH_T_cold.json").read_text(encoding="utf-8"))
    bench_ab = importlib.import_module("bench_ab")
    assert list(doc["env"]) == [*bench_ab.run_env(), "loadavg_after"]
    assert {key: doc["env"][key] for key in bench_ab.run_env()} == bench_ab.run_env()
