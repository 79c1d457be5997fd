"""tools/bench_ab.py: the paired-comparison core, the BENCH document assembled from canned run.py outputs, the
exports and the head snapshot."""

import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
ENV = {"commit": "unknown (not a git checkout)", "python": "3.11.7", "nproc": 2}


def _stdout(work, setup, rss, failed=0):
    metrics = {"work_per_s": {"value": work, "unit": "1/s"}, "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "workload=collision_oracle seed=71 seconds=15 trace=0",
        f"work_per_s median={work} q1={work} q3={work} n=6 1/s",
        "env " + json.dumps(ENV),
        json.dumps({"correct": failed == 0, "attempted": 8, "failed": failed, "metrics": metrics}),
    ]) + "\n"


def _pair(seed, base, head, held_out=False):
    return {"seed": seed, "held_out": held_out, "first": "base" if seed % 2 else "head",
            "base": bench_ab.parse_run(_stdout(*base)), "head": bench_ab.parse_run(_stdout(*head))}


# (work_per_s, setup_s, peak_rss_mb[, failed]) of base and head in each pair
PAIRS = [
    _pair(1, (4.0e6, 0.20, 174.0), (15.0e6, 0.20, 87.0)),
    _pair(2, (4.5e6, 0.21, 174.0), (16.0e6, 0.19, 87.0)),
    _pair(3, (4.2e6, 0.19, 174.0), (15.5e6, 0.22, 87.0, 1)),
    _pair(4, (4.4e6, 0.20, 174.0), (4.3e6, 0.20, 87.0), held_out=True),
]


def test_parse_run_reads_the_result_and_env_lines():
    run = bench_ab.parse_run(_stdout(4.0e6, 0.2, 174.0, failed=2))
    assert run == {"correct": False, "attempted": 8, "failed": 2, "work_per_s": 4.0e6,
                   "setup_s": 0.2, "peak_rss_mb": 174.0, "env": ENV}


def test_summarize_counts_wins_and_applies_the_gain_rule():
    doc = bench_ab.summarize(PAIRS, SPEC)
    work = doc["metrics"]["work_per_s"]
    base = [4.0e6, 4.5e6, 4.2e6, 4.4e6]
    head = [15.0e6, 16.0e6, 15.5e6, 4.3e6]
    q1, _, q3 = statistics.quantiles(base, n=4)
    assert work["base"] == {"median": statistics.median(base), "q1": q1, "q3": q3, "n": 4}
    assert work["head"]["median"] == statistics.median(head)
    assert work["head_over_base"] == pytest.approx(statistics.median(head) / statistics.median(base))
    assert work["median_head_minus_base"] == pytest.approx(statistics.median(h - b for b, h in zip(base, head)))
    assert (work["wins"], work["losses"], work["ties"], work["pairs"]) == (3, 1, 0, 4)
    assert work["gain"] is False  # 3 of 4 is below nine tenths
    assert work["within_bound"] is True
    assert bench_ab.summarize(PAIRS[:3], SPEC)["metrics"]["work_per_s"]["gain"] is True

    rss = doc["metrics"]["peak_rss_mb"]  # lower is better
    assert (rss["wins"], rss["losses"], rss["ties"], rss["gain"]) == (4, 0, 0, True)
    setup = doc["metrics"]["setup_s"]
    assert (setup["wins"], setup["losses"], setup["ties"]) == (1, 1, 2)
    assert setup["within_bound"] is True

    assert doc["base"] == {"correct": True, "attempted": 32, "failed": 0}
    assert doc["head"] == {"correct": False, "attempted": 32, "failed": 1}
    assert doc["pairs"] == PAIRS


def test_compare_reads_the_direction_ties_and_both_gain_rules():
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # quartiles 11.75 and 17.25
    up = [b + 8.0 for b in base]
    higher = bench_ab.compare(base, up, "higher")
    q1, _, q3 = statistics.quantiles(base, n=4)
    assert higher["base"] == {"median": 14.5, "q1": q1, "q3": q3, "n": 10} and higher["head"]["median"] == 22.5
    assert higher["head_over_base"] == 22.5 / 14.5 and higher["median_head_minus_base"] == 8.0
    assert (higher["wins"], higher["losses"], higher["ties"], higher["pairs"], higher["gain"]) == (10, 0, 0, 10, True)
    lower = bench_ab.compare(base, up, "lower")  # the same values, judged the other way
    assert (lower["wins"], lower["losses"], lower["median_head_minus_base"], lower["gain"]) == (0, 10, 8.0, False)
    assert bench_ab.compare(up, base, "lower")["gain"]

    # Nine tenths: one tie leaves 9 of 10 won, a gain; one more pair lost leaves 8, none.
    tied = bench_ab.compare(base, [base[0], *up[1:]], "higher")
    assert (tied["wins"], tied["ties"], tied["gain"]) == (9, 1, True)
    short = bench_ab.compare(base, [base[0], base[1] - 1.0, *up[2:]], "higher")
    assert (short["wins"], short["losses"], short["ties"], short["gain"]) == (8, 1, 1, False)
    # Every pair won, but the medians differ by 1.0, inside the base's quartile spread of 5.5.
    close = bench_ab.compare(base, [b + 1.0 for b in base], "higher")
    assert (close["wins"], close["gain"]) == (10, False)

    one = bench_ab.compare([2.0], [1.0], "lower")  # n = 1: the quartiles are the value, so any win is a gain
    assert one["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1} and (one["wins"], one["gain"]) == (1, True)
    same = bench_ab.compare([2.0], [2.0], "lower")
    assert (same["ties"], same["gain"]) == (1, False)


def test_alternate_runs_the_base_first_in_every_other_pair():
    calls = []

    def run(tree, item):
        calls.append((tree, item))
        return f"{tree}{item}"

    pairs = bench_ab.alternate({"base": "B", "head": "H"}, run, [0, 1, 2, 3, 4])
    assert next(pairs) == {"first": "base", "base": "B0", "head": "H0"} and calls == [("B", 0), ("H", 0)]
    assert [pair["first"] for pair in pairs] == ["head", "base", "head", "base"]
    assert calls == [("B", 0), ("H", 0), ("H", 1), ("B", 1), ("B", 2), ("H", 2), ("H", 3), ("B", 3), ("B", 4), ("H", 4)]


def _reproduced(stored: dict, base: list, head: list, better: str) -> set:
    """The keys that compare's result shares with a committed summary, after checking that they hold its values."""
    computed = bench_ab.compare(base, head, better)
    shared = {key for key in computed if key in stored and not isinstance(stored[key], list)}
    assert {key: computed[key] for key in shared} == {key: stored[key] for key in shared}
    return shared


@pytest.mark.parametrize("name", ["BENCH_43.json", "BENCH_43_cold.json", "BENCH_43_suite.json",
                                  "BENCH_43_aa_suite.json"])
def test_compare_reproduces_the_committed_pairs_verdicts(name):
    doc = json.loads((ROOT / name).read_text(encoding="utf-8"))
    stats = {"base", "head", "head_over_base", "wins", "losses"}
    for workload in doc.get("workloads", {}).values():
        for metric in SPEC:
            key = metric["name"]
            assert _reproduced(workload["metrics"][key], [p["base"][key] for p in workload["pairs"]],
                               [p["head"][key] for p in workload["pairs"]], metric["better"]) == stats | {
                "ties", "pairs", "gain"}
    for case in doc.get("cases", {}).values():  # stored before the pairs moved to "runs"
        assert _reproduced(case, [p["base"] for p in case["pairs"]], [p["head"] for p in case["pairs"]],
                           "lower") == stats | {"median_head_minus_base"}
    if "suite" in doc:
        suite = doc["suite"]
        assert _reproduced(suite, [p["base"]["wall_s"] for p in suite["runs"]],
                           [p["head"]["wall_s"] for p in suite["runs"]], "lower") == stats | {
            "median_head_minus_base", "pairs", "gain"}


def test_within_bound_is_the_metric_bound_on_the_worse_side():
    slower = [_pair(1, (100.0, 0.2, 50.0), (79.0, 0.2, 50.0)), _pair(2, (100.0, 0.2, 50.0), (81.0, 0.2, 50.0))]
    work = bench_ab.summarize(slower, SPEC)["metrics"]["work_per_s"]
    assert work["head"]["median"] == 80.0
    assert work["within_bound"] is True  # exactly the 20% bound
    worse = bench_ab.summarize(slower[:1], SPEC)["metrics"]["work_per_s"]
    assert worse["within_bound"] is False


def test_assemble_keeps_other_workloads_only_under_the_same_header():
    header = {"label": "11", "base": "a" * 40, "head": {"commit": "b" * 40, "dirty": True, "src_sha256": "c"},
              "command": ["python3", "perfbench/run.py", "--trace", "0", "--seconds", "15"]}
    first = bench_ab.assemble(None, header, {"collision_oracle": PAIRS}, SPEC)
    assert list(first["workloads"]) == ["collision_oracle"]
    assert {k: first[k] for k in header} == header

    second = bench_ab.assemble(first, header, {"full_6dof": PAIRS[:2]}, SPEC)
    assert list(second["workloads"]) == ["collision_oracle", "full_6dof"]
    assert second["workloads"]["collision_oracle"] == first["workloads"]["collision_oracle"]

    other_head = {**header, "head": {**header["head"], "src_sha256": "d"}}
    third = bench_ab.assemble(second, other_head, {"full_6dof": PAIRS[:2]}, SPEC)
    assert list(third["workloads"]) == ["full_6dof"]
    json.dumps(third)  # the document is plain JSON


def test_run_env_records_bytecode_python_and_cpu_count(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench_ab.run_env()
    assert env == {"python": sys.version.split()[0], "PYTHONDONTWRITEBYTECODE": "1", "nproc": os.cpu_count()}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_ab.run_env()["PYTHONDONTWRITEBYTECODE"] is None


def test_each_workload_records_its_env_outside_the_header(monkeypatch):
    # The env decides nothing about merging: a workload run with bytecode off is kept beside one
    # run with it on, and each keeps the env it was measured in.
    header = {"label": "24", "base": "a" * 40, "head": {"commit": "b" * 40, "dirty": True, "src_sha256": "c"},
              "command": ["python3", "perfbench/run.py", "--trace", "0", "--seconds", "15"]}
    cold = {"python": "3.11.7", "PYTHONDONTWRITEBYTECODE": "1", "nproc": 2}
    warm = {**cold, "PYTHONDONTWRITEBYTECODE": None}
    first = bench_ab.assemble(None, header, {"collision_oracle": PAIRS}, SPEC, env=cold)
    second = bench_ab.assemble(first, header, {"full_6dof": PAIRS[:2]}, SPEC, env=warm)
    assert set(second) == set(header) | {"workloads"}
    assert second["workloads"]["collision_oracle"]["env"] == cold
    assert second["workloads"]["full_6dof"]["env"] == warm
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_ab.assemble(None, header, {"full_6dof": PAIRS}, SPEC)["workloads"]["full_6dof"]["env"] == {
        "python": sys.version.split()[0], "PYTHONDONTWRITEBYTECODE": "1", "nproc": os.cpu_count()}


def _repo(path: Path) -> None:
    path.mkdir()
    (path / "perfbench").mkdir()
    (path / "perfbench" / "run.py").write_text("", encoding="utf-8")
    (path / "later.txt").write_text("written after perfbench/run.py\n", encoding="utf-8")
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=bench", "-c", "user.email=bench@example.com", "commit", "-q", "-m", "base"]):
        subprocess.run(["git", *args], cwd=path, check=True, capture_output=True)


def test_an_export_that_stops_partway_is_not_reused(monkeypatch, tmp_path):
    # The fake tar writes perfbench/run.py, as git archive's stream does before src/ and tests/, and then fails.
    _repo(tmp_path / "repo")
    (tmp_path / "bin").mkdir()
    (tmp_path / "bin" / "tar").write_text('#!/bin/sh\nmkdir -p "$3/perfbench" && : > "$3/perfbench/run.py"\nexit 2\n',
                                          encoding="utf-8")
    (tmp_path / "bin" / "tar").chmod(0o755)
    build = tmp_path / "build"
    monkeypatch.setattr(bench_ab, "ROOT", tmp_path / "repo")
    monkeypatch.setattr(bench_ab, "BUILD", build)
    path = os.environ["PATH"]
    monkeypatch.setenv("PATH", f"{tmp_path / 'bin'}{os.pathsep}{path}")
    with pytest.raises(subprocess.CalledProcessError):
        bench_ab.export("HEAD")
    assert list(build.iterdir()) == []  # neither the tree nor its partial extraction is left

    monkeypatch.setenv("PATH", path)
    tree = bench_ab.export("HEAD")
    assert list(build.iterdir()) == [tree] and (tree / "later.txt").is_file()
    assert bench_ab.export("HEAD") == tree


def test_snapshot_holds_the_working_tree_and_leaves_the_index_alone(tmp_path):
    def git(*args):
        return subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    files = {".gitignore": "ignored.txt\n", "tracked.txt": "committed\n", "BENCH_1.json": "{}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    git("add", "-A")
    git("-c", "user.name=bench", "-c", "user.email=bench@example.com", "commit", "-q", "-m", "base")
    edits = {"tracked.txt": "edited\n", "untracked.txt": "new\n", "ignored.txt": "left out\n",
             "BENCH_1.json": "{\"rewritten\": true}\n", "BENCH_2.json": "{}\n"}
    for name, text in edits.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    status = git("status", "--porcelain")

    tree = bench_ab.snapshot(tmp_path)
    assert git("ls-tree", "--name-only", tree).split() == [".gitignore", "BENCH_1.json", "tracked.txt",
                                                           "untracked.txt"]
    assert git("show", f"{tree}:tracked.txt") == "edited\n"  # the uncommitted edit
    assert git("show", f"{tree}:untracked.txt") == "new\n"
    assert git("show", f"{tree}:BENCH_1.json") == "{}\n"  # BENCH files as committed
    assert git("status", "--porcelain") == status  # nothing was staged in the repository's index
    assert bench_ab.snapshot(tmp_path) == tree
