"""tools/bench_suite.py: pytest's summary line, one timed suite run, the summary of the pairs and the document."""

import importlib
import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_suite(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # it imports bench_ab as a sibling
    return importlib.import_module("bench_suite")


def test_the_command_is_the_tier1_verify_command(bench_suite):
    # ROADMAP.md's Tier-1 line runs `python -m pytest -q --continue-on-collection-errors` with PYTHONPATH=src.
    tier1 = (ROOT / "ROADMAP.md").read_text(encoding="utf-8").split("**Tier-1 verify:** `", 1)[1].split("`", 1)[0]
    assert tier1.split()[1:] == ["python", *bench_suite.TIER1]


@pytest.mark.parametrize("line, counts, seconds", [
    ("1170 passed in 54.63s", {"passed": 1170}, 54.63),
    ("2 failed, 1168 passed, 1 error in 60.10s (0:01:00)", {"failed": 2, "passed": 1168, "errors": 1}, 60.1),
    ("3 passed, 2 skipped, 4 deselected, 5 warnings in 1.00s", {"passed": 3, "skipped": 2, "deselected": 4}, 1.0),
])
def test_parse_summary_reads_pytests_last_summary_line(bench_suite, line, counts, seconds):
    stdout = f"....\ntests/test_x.py::test_y took 0.5s in total\n{line}\n"
    assert bench_suite.parse_summary(stdout) == {"counts": counts, "pytest_s": seconds}
    assert bench_suite.parse_summary("no summary\n") == {"counts": {}, "pytest_s": None}


def test_run_suite_times_the_suite_of_a_tree(bench_suite, tmp_path):
    # The tree's own tests and src run, by this interpreter, in the tree's directory.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe_module.py").write_text("VALUE = 3\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(
        "import sys\nfrom pathlib import Path\nimport probe_module\n\n"
        f"def test_src():\n    assert probe_module.VALUE == 3 and sys.executable == {sys.executable!r}\n\n"
        "def test_cwd():\n    assert Path.cwd() == Path(__file__).parents[1]\n", encoding="utf-8")
    run = bench_suite.run_suite(tmp_path)
    assert run["returncode"] == 0 and run["counts"] == {"passed": 2}
    assert run["wall_s"] > run["pytest_s"] > 0.0
    (tmp_path / "tests" / "test_fail.py").write_text("def test_no():\n    assert False\n", encoding="utf-8")
    assert bench_suite.run_suite(tmp_path)["counts"] == {"failed": 1, "passed": 2}


def _run(wall, code=0):
    return {"wall_s": wall, "returncode": code, "counts": {"passed": 3}, "pytest_s": wall - 1.0}


def test_summarize_counts_wins_and_applies_the_gain_rule(bench_suite):
    base, head = [50.0, 52.0, 51.0, 53.0, 49.0], [40.0, 41.0, 40.5, 42.0, 50.0]
    pairs = [{"first": "base" if i % 2 == 0 else "head", "base": _run(b), "head": _run(h)}
             for i, (b, h) in enumerate(zip(base, head))]
    suite = bench_suite.summarize(pairs)
    q1, _, q3 = statistics.quantiles(base, n=4)
    assert suite["base"] == {"median": 51.0, "q1": q1, "q3": q3, "n": 5} and suite["head"]["median"] == 41.0
    assert (suite["wins"], suite["losses"], suite["pairs"]) == (4, 1, 5)
    assert suite["median_head_minus_base"] == -10.5 and suite["head_over_base"] == pytest.approx(41.0 / 51.0)
    assert not suite["gain"]  # 4 of 5 pairs is short of nine tenths
    assert bench_suite.summarize(pairs[:4])["gain"]  # 4 of 4, and a median 10.75 s lower, beyond the base's quartile spread
    assert suite["all_passed"] == {"base": True, "head": True} and suite["runs"] == pairs
    pairs[2]["head"]["returncode"] = 1
    assert bench_suite.summarize(pairs)["all_passed"] == {"base": True, "head": False}


def test_main_alternates_the_sides_and_writes_the_document(bench_suite, monkeypatch, tmp_path):
    order = []

    def run_suite(tree):
        order.append(tree.name)
        return _run(50.0 if tree.name == "base" else 40.0)

    monkeypatch.setattr(bench_suite, "ROOT", tmp_path)
    monkeypatch.setattr(bench_suite, "export", lambda rev, kind="commit": tmp_path / rev)
    monkeypatch.setattr(bench_suite, "head_identity", lambda: {"tree": "head"})
    monkeypatch.setattr(bench_suite, "run_suite", run_suite)
    assert bench_suite.main(["--base", "base", "--label", "T", "--pairs", "3"]) == 0
    assert order == ["base", "head", "head", "base", "base", "head"]
    doc = json.loads((tmp_path / "BENCH_T_suite.json").read_text(encoding="utf-8"))
    assert doc["base"] == "base" and doc["head"] == {"tree": "head"}
    assert doc["command"] == ["python3", *bench_suite.TIER1]
    bench_ab = importlib.import_module("bench_ab")
    assert list(doc["env"]) == [*bench_ab.run_env(), "loadavg_after"]
    assert doc["suite"]["wins"] == 3 and [p["first"] for p in doc["suite"]["runs"]] == ["base", "head", "base"]
