"""A/B benchmark of a base revision against the working tree, written to BENCH_<label>.json.

    python3 tools/bench_ab.py --base REV --label N --workloads W [W ...] \
        --seeds A-B --seconds S [--held-out SEED]

The base is exported with ``git archive REV`` into ``.bench_build/<commit>/``.
The head is the working tree: its files, tracked and untracked but not
ignored, are written to a git tree through a temporary index and exported
the same way into ``.bench_build/<tree>/``, so both sides run from a copy
at the same depth. For every seed, each tree runs its own ``perfbench/run.py
--trace 0`` once, the two in alternating order (the first pair starts with
the base). A ``--held-out`` seed adds one more pair per workload, marked as
such. The last JSON line of each run gives its end-to-end metrics,
``correct``, ``attempted`` and ``failed``.

Per workload the file holds every pair, each side's median and quartiles
of each end-to-end metric, the pairs the head won, lost and tied on it
(direction and bound from ``BENCHMARK.json``), and whether the difference
passes the gain rule (wins in at least nine tenths of the pairs and a
median difference beyond the base's quartile spread) or stays within the
metric's bound. An existing file with the same label, base, head source
and run length keeps its other workloads, so one file can collect several
invocations. Each workload also records the environment its runs inherited,
as ``tools/bench_cold.py`` records it: the Python version, the CPU count and
``PYTHONDONTWRITEBYTECODE`` (when set, the exports hold no bytecode, so every
run compiles ionblimp from source inside ``setup_s``). It is kept out of the
header, so a workload measured in another environment is kept beside them.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
GAIN_SHARE = 0.9  # share of pairs the head must win before a gain is claimed


def _git(*args, root: Path = ROOT, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=root, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, kind: str = "commit") -> Path:
    """The tree of rev (a commit, or a tree with kind="tree"), exported once into .bench_build/<id>/."""
    rev_id = _git("rev-parse", "--verify", f"{rev}^{{{kind}}}")
    tree = BUILD / rev_id
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", rev_id], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
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


def _quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list, spec: list) -> dict:
    """Per-metric statistics, wins and verdicts of one workload's pairs.

    ``spec`` is BENCHMARK.json's ``end_to_end`` list. A pair is won when the
    head's value is better than the base's in the metric's direction.
    """
    metrics = {}
    for metric in spec:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        base = [pair["base"][name] for pair in pairs]
        head = [pair["head"][name] for pair in pairs]
        diffs = [sign * (h - b) for b, h in zip(base, head)]
        b, h = _quartiles(base), _quartiles(head)
        gain = sign * (h["median"] - b["median"])
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": b, "head": h, "head_over_base": h["median"] / b["median"],
            "wins": sum(d > 0 for d in diffs), "losses": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs), "pairs": len(pairs),
            "gain": sum(d > 0 for d in diffs) >= GAIN_SHARE * len(pairs) and gain > b["q3"] - b["q1"],
            "within_bound": -gain <= metric["bound"] * abs(b["median"]),
        }
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


def _pair(trees: dict, workload: str, seed: int, seconds: int, base_first: bool, held_out: bool) -> dict:
    sides = {}
    for side in ("base", "head") if base_first else ("head", "base"):
        sides[side] = run_side(trees[side], workload, seed, seconds)
    print(f"{workload} seed={seed} first={'base' if base_first else 'head'} "
          f"base={sides['base']['work_per_s']:.6g} head={sides['head']['work_per_s']:.6g} work_per_s",
          flush=True)
    return {"seed": seed, "held_out": held_out, "first": "base" if base_first else "head",
            "base": sides["base"], "head": sides["head"]}


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
    workload_pairs = {w: [_pair(trees, w, seed, args.seconds, i % 2 == 0, held)
                          for i, (seed, held) in enumerate(seeds)] for w in args.workloads}
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
