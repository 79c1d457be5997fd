"""Tier-1 wall-time A/B of a base revision against the working tree, written to BENCH_<label>_suite.json.

    python3 tools/bench_suite.py --base REV --label N [--pairs P]

Each run is the Tier-1 command of ROADMAP.md (``TIER1``), run by this
interpreter in the tree's own directory with ``PYTHONPATH`` set to the tree's
``src``, and timed from spawn to exit. Both sides run from exports made as
``tools/bench_ab.py`` makes them: ``git archive REV`` for the base, a snapshot
tree of the working tree for the head. ``--pairs`` pairs run in alternating
order, the first pair starting with the base.

The file holds every pair, with each run's wall time, exit code, and the
counts and seconds of pytest's last summary line; each side's median and
quartiles of the wall time; the median of the paired differences (head minus
base); the pairs the head won and lost (lower is better); whether the
difference passes ``bench_ab``'s gain rule (the head wins at least nine tenths
of the pairs, and the medians differ by more than the base's quartile spread);
and whether every run of a side passed. A head that adds tests runs more of
them, so its counts are part of the comparison. Its ``env`` is
``bench_ab.run_env()`` plus the load average after the runs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_ab import GAIN_SHARE, ROOT, _quartiles, export, head_identity, run_env

# ROADMAP.md's Tier-1 verify command, after the interpreter; PYTHONPATH is the tree's src.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_summary(stdout: str) -> dict:
    """The counts (passed, failed, errors, ...) and seconds of pytest's last summary line, e.g. ``3 passed in 1.2s``."""
    lines = [line for line in stdout.splitlines() if re.search(r" in [0-9.]+s\b", line)]
    if not lines:
        return {"counts": {}, "pytest_s": None}
    last = lines[-1]
    counts = {{"error": "errors"}.get(word, word): int(n)
              for n, word in re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)", last)}
    return {"counts": counts, "pytest_s": float(re.search(r" in ([0-9.]+)s\b", last).group(1))}


def run_suite(tree: Path) -> dict:
    """One Tier-1 run by this interpreter in tree: its wall seconds, exit code and pytest summary."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "returncode": proc.returncode, **parse_summary(proc.stdout)}


def summarize(pairs: list) -> dict:
    """Each side's quartiles of the wall time, wins and losses (lower wins), the gain rule and the pass verdicts."""
    base, head = [p["base"]["wall_s"] for p in pairs], [p["head"]["wall_s"] for p in pairs]
    b, h = _quartiles(base), _quartiles(head)
    wins = sum(hw < bw for bw, hw in zip(base, head))
    passed = {side: all(p[side]["returncode"] == 0 for p in pairs) for side in ("base", "head")}
    return {"unit": "s", "better": "lower", "base": b, "head": h, "head_over_base": h["median"] / b["median"],
            "median_head_minus_base": statistics.median(hw - bw for bw, hw in zip(base, head)),
            "wins": wins, "losses": sum(hw > bw for bw, hw in zip(base, head)), "pairs": len(pairs),
            "gain": wins >= GAIN_SHARE * len(pairs) and b["median"] - h["median"] > b["q3"] - b["q1"],
            "all_passed": passed, "runs": pairs}


def _pair(trees: dict, base_first: bool) -> dict:
    sides = {side: run_suite(trees[side]) for side in (("base", "head") if base_first else ("head", "base"))}
    return {"first": "base" if base_first else "head", "base": sides["base"], "head": sides["head"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>_suite.json at the repository root")
    parser.add_argument("--pairs", type=int, default=5, help="timed pairs of Tier-1 runs")
    args = parser.parse_args(argv)

    head = head_identity()
    trees = {"base": export(args.base), "head": export(head["tree"], "tree")}
    pairs = []
    for i in range(args.pairs):
        pairs.append(pair := _pair(trees, i % 2 == 0))
        print(f"pair {i + 1}/{args.pairs} first={pair['first']} base={pair['base']['wall_s']:.2f}s "
              f"{pair['base']['counts']} head={pair['head']['wall_s']:.2f}s {pair['head']['counts']}", flush=True)
    doc = {"label": args.label, "base": trees["base"].name, "head": head,
           "command": ["python3", *TIER1], "env": {**run_env(), "loadavg_after": os.getloadavg()},
           "suite": summarize(pairs)}
    out = ROOT / f"BENCH_{args.label}_suite.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
