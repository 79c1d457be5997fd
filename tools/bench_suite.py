"""Tier-1 wall-time A/B of a base revision against the working tree, written to BENCH_<label>_suite.json.

    python3 tools/bench_suite.py --base REV --label N [--pairs P]

Each run is the Tier-1 command of ROADMAP.md (``TIER1``), run by this
interpreter in the tree's own directory with ``PYTHONPATH`` set to the tree's
``src``, and timed from spawn to exit. Both sides run from ``bench_ab``'s
exports of the base and the working tree, ``--pairs`` pairs in ``bench_ab``'s
alternating order.

The file holds every pair (``runs``), with each run's wall time, exit code,
and the counts and seconds of pytest's last summary line; ``bench_ab``'s
paired comparison of the wall times (lower is better; its gain rule
included); and whether every run of a side passed. A head that adds tests
runs more of them, so its counts are part of the comparison. Its ``env`` is
``bench_ab.run_env()`` plus the load average after the runs.
"""

import argparse
import json
import os
import re
import sys
from pathlib import Path

from bench_ab import ROOT, alternate, compare, export, head_identity, run_env, spawn

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
    wall, proc = spawn(tree, TIER1)
    return {"wall_s": wall, "returncode": proc.returncode, **parse_summary(proc.stdout.decode())}


def summarize(pairs: list) -> dict:
    """``bench_ab.compare`` of the wall times (lower wins), whether every run of each side passed, and the pairs."""
    passed = {side: all(p[side]["returncode"] == 0 for p in pairs) for side in ("base", "head")}
    return {"unit": "s", "better": "lower",
            **compare([p["base"]["wall_s"] for p in pairs], [p["head"]["wall_s"] for p in pairs], "lower"),
            "all_passed": passed, "runs": pairs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>_suite.json at the repository root")
    parser.add_argument("--pairs", type=int, default=5, help="timed pairs of Tier-1 runs")
    args = parser.parse_args(argv)

    head = head_identity()
    trees = {"base": export(args.base), "head": export(head["tree"], "tree")}
    pairs = []
    for i, pair in enumerate(alternate(trees, lambda tree, _: run_suite(tree), range(args.pairs))):
        pairs.append(pair)
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
