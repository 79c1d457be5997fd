"""A/B benchmark of a base revision against the working tree, written to BENCH_<label>.json.

    python3 tools/bench_ab.py --base REV --label N --workloads W [W ...] \
        --seeds A-B --seconds S [--held-out SEED]

The base is exported with ``git archive REV`` into ``.bench_build/<commit>/``.
The head is the working tree: its files, tracked and untracked but not
ignored, are written to a git tree through a temporary index and exported
the same way into ``.bench_build/<tree>/``, so both sides run from a copy
at the same depth. For every seed, each tree runs its own ``perfbench/run.py
--trace 0`` once, as one pair of ``alternate``. A ``--held-out`` seed adds
one more pair per workload, marked as such. The last JSON line of each run
gives its end-to-end metrics, ``correct``, ``attempted`` and ``failed``.

The pair order and the gain rule of every bench tool here live in this
module: ``alternate`` runs the base first in the first pair and in every
other pair after it, and ``compare`` claims a gain when the head wins at
least ``GAIN_SHARE`` (nine tenths) of the pairs and the medians differ by
more than the base's quartile spread. Per workload the file holds every pair
and, per end-to-end metric, its ``compare`` result (direction from
``BENCHMARK.json``) and whether it stays within the metric's bound. An
existing file with the same label, base, head source and run length keeps
its other workloads, so one file can collect several invocations. Each
workload also records the environment its runs inherited, as
``tools/bench_cold.py`` records it: the Python version, the CPU count and
``PYTHONDONTWRITEBYTECODE`` (when set, the exports hold no bytecode, so
every run compiles ionblimp from source inside ``setup_s``). It is kept out
of the header, so a workload measured in another environment is kept beside
them.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
GAIN_SHARE = 0.9  # share of pairs the head must win before a gain is claimed


def _git(*args, root: Path = ROOT, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=root, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, kind: str = "commit") -> Path:
    """The tree of rev (a commit, or a tree with kind="tree"), exported once into .bench_build/<id>/.

    It is extracted into a temporary sibling and renamed into place, so an
    extraction that stops partway leaves no tree for a later run to reuse.
    """
    rev_id = _git("rev-parse", "--verify", f"{rev}^{{{kind}}}", root=ROOT)
    tree = BUILD / rev_id
    if not tree.is_dir():
        BUILD.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD, prefix=f"{rev_id}.") as part:
            archive = subprocess.run(["git", "archive", rev_id], cwd=ROOT, check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", part], input=archive, check=True)
            os.rename(part, tree)  # the cleanup on exit then finds nothing to remove
    return tree


def snapshot(root: Path = ROOT) -> str:
    """The id of a git tree holding the working tree's tracked and untracked, not ignored, files.

    It is staged in a temporary index, so the repository's own index is left
    alone. BENCH_*.json files stay as committed: writing one does not change
    the snapshot.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("read-tree", "HEAD", root=root, env=env)
        _git("add", "-A", "--", ".", ":!BENCH_*.json", root=root, env=env)
        return _git("write-tree", root=root, env=env)


def head_identity() -> dict:
    """The working tree's commit, whether it has uncommitted changes, its snapshot tree and its src/ sha256."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain")),
            "tree": snapshot(), "src_sha256": digest.hexdigest()}


def run_env() -> dict:
    """The Python version, the CPU count and PYTHONDONTWRITEBYTECODE that every run inherits from this process."""
    return {"python": sys.version.split()[0], "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "nproc": os.cpu_count()}


def parse_run(stdout: str) -> dict:
    """The result of one run.py invocation: its last JSON line plus its ``env`` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            **{name: metric["value"] for name, metric in result["metrics"].items()},
            "env": env[-1] if env else {}}


def run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def spawn(tree: Path, args: list) -> tuple:
    """(wall seconds, completed process) of one fresh interpreter, this one, running args in tree with PYTHONPATH
    set to the tree's src; timed by perf_counter from spawn to exit, its output captured as bytes."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True)
    return time.perf_counter() - start, proc


def alternate(trees: dict, run, items):
    """Yield one pair per item, {"first", "base", "head"}, each side being run(trees[side], item); the base runs
    first in the first pair and in every other pair after it."""
    for i, item in enumerate(items):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        sides = {side: run(trees[side], item) for side in order}
        yield {"first": order[0], "base": sides["base"], "head": sides["head"]}


def _quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def compare(base: list, head: list, better: str) -> dict:
    """Each side's quartiles, the paired differences and the gain rule of base[i] against head[i]. A pair is won
    when the head is better in the direction better ("higher" or "lower"); ``gain`` needs at least GAIN_SHARE of
    the pairs won and a median better than the base's by more than the base's quartile spread."""
    sign = 1.0 if better == "higher" else -1.0
    paired = [y - x for x, y in zip(base, head)]  # head minus base
    b, h = _quartiles(base), _quartiles(head)
    wins = sum(sign * d > 0 for d in paired)
    return {"base": b, "head": h, "head_over_base": h["median"] / b["median"],
            "median_head_minus_base": statistics.median(paired),
            "wins": wins, "losses": sum(sign * d < 0 for d in paired), "ties": sum(d == 0 for d in paired),
            "pairs": len(paired),
            "gain": wins >= GAIN_SHARE * len(paired) and sign * (h["median"] - b["median"]) > b["q3"] - b["q1"]}


def summarize(pairs: list, spec: list) -> dict:
    """Per-metric ``compare`` results and bound verdicts of one workload's pairs; ``spec`` is BENCHMARK.json's
    ``end_to_end`` list, which gives each metric's direction and bound."""
    metrics = {}
    for metric in spec:
        name, better = metric["name"], metric["better"]
        stats = compare([pair["base"][name] for pair in pairs], [pair["head"][name] for pair in pairs], better)
        worse = (1.0 if better == "higher" else -1.0) * (stats["base"]["median"] - stats["head"]["median"])
        metrics[name] = {"unit": metric["unit"], "better": better, "bound": metric["bound"], **stats,
                         "within_bound": worse <= metric["bound"] * abs(stats["base"]["median"])}
    sides = {side: {"correct": all(pair[side]["correct"] for pair in pairs),
                    "attempted": sum(pair[side]["attempted"] for pair in pairs),
                    "failed": sum(pair[side]["failed"] for pair in pairs)} for side in ("base", "head")}
    return {"pairs": pairs, "metrics": metrics, **sides}


def assemble(previous: dict | None, header: dict, workload_pairs: dict, spec: list, env: dict | None = None) -> dict:
    """The BENCH document: a previous one's other workloads are kept when its header matches.

    Each workload summarized here records env (default: ``run_env()``); a kept one keeps its own.
    """
    keep = previous if previous and all(previous.get(k) == v for k, v in header.items()) else {}
    workloads = dict(keep.get("workloads", {}))
    env = run_env() if env is None else env
    workloads.update({w: {**summarize(pairs, spec), "env": env} for w, pairs in workload_pairs.items()})
    return {**header, "workloads": dict(sorted(workloads.items()))}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repository root")
    parser.add_argument("--workloads", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, help="A-B (inclusive) or one seed")
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--held-out", type=int, help="one more pair per workload on this seed")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    head = head_identity()
    trees = {"base": export(args.base), "head": export(head["tree"], "tree")}
    seeds = [(seed, False) for seed in _seeds(args.seeds)]
    seeds += [(args.held_out, True)] if args.held_out is not None else []
    workload_pairs = {}
    for w in args.workloads:
        runs = alternate(trees, lambda tree, seed: run_side(tree, w, seed, args.seconds), [seed for seed, _ in seeds])
        pairs = workload_pairs[w] = []
        for (seed, held), pair in zip(seeds, runs):
            pairs.append({"seed": seed, "held_out": held, **pair})
            print(f"{w} seed={seed} first={pair['first']} base={pair['base']['work_per_s']:.6g} "
                  f"head={pair['head']['work_per_s']:.6g} work_per_s", flush=True)
    header = {"label": args.label, "base": trees["base"].name, "head": head,
              "command": ["python3", "perfbench/run.py", "--trace", "0", "--seconds", str(args.seconds)]}
    out = ROOT / f"BENCH_{args.label}.json"
    previous = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else None
    out.write_text(json.dumps(assemble(previous, header, workload_pairs, spec), indent=1) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
