"""Cold-start A/B of a base revision against the working tree, written to BENCH_<label>_cold.json.

    python3 tools/bench_cold.py --base REV --label N [--runs R]

Each case is one fresh interpreter, timed from spawn to exit: ``blimpsim
simulate`` on each demo scenario (``demos/scenarios/*.cfg``), CSV and summary
written to a temporary directory, and ``import ionblimp.cli`` alone. The
simulate case calls ``ionblimp.cli.main`` as the ``blimpsim`` console script
does. Both sides run from exports made as ``tools/bench_ab.py`` makes them:
``git archive REV`` for the base, a snapshot tree of the working tree for the
head. For every case, each side runs once untimed (so that, where bytecode may
be written, every timed run reads it), then ``--runs`` pairs in alternating
order, the first pair starting with the base.

Per case the file holds every pair, each side's median and quartiles, the
median of the paired differences (head minus base, which cancels load that
drifts slower than a pair), the pairs the head won and lost (lower is
better), and whether both sides wrote the same stdout, CSV and summary bytes
on every run. Whether ``PYTHONDONTWRITEBYTECODE`` was set is recorded: when
it is, every run compiles ionblimp from source. The file is separate from
BENCH_<label>.json, whose top-level keys ``bench_ab`` rewrites.
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

from bench_ab import ROOT, _quartiles, export, head_identity

SIMULATE = "import sys\nfrom ionblimp.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def cases() -> dict:
    """Each case's ``python -c`` arguments, with paths relative to the tree it runs in."""
    scenarios = sorted(path.stem for path in (ROOT / "demos" / "scenarios").glob("*.cfg"))
    table = {name: [SIMULATE, "simulate", f"demos/scenarios/{name}.cfg", "--csv", "{out}/run.csv",
                    "--summary", "{out}/run.summary"] for name in scenarios}
    return {**table, "import_cli": ["import ionblimp.cli"]}


def run_case(tree: Path, args: list) -> tuple:
    """One fresh interpreter in tree: (wall seconds, sha256 of its stdout and output files)."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-c", *(arg.replace("{out}", out) for arg in args)]
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"{tree}: {' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr[-500:]!r}")
        digest = hashlib.sha256(proc.stdout)
        for path in sorted(Path(out).iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return wall, digest.hexdigest()


def summarize(pairs: list) -> dict:
    """Quartiles of each side, wins and losses (lower wall time wins) and output identity of one case."""
    base, head = [p["base"] for p in pairs], [p["head"] for p in pairs]
    b, h, digests = _quartiles(base), _quartiles(head), {p["digest"] for p in pairs}
    return {"unit": "s", "better": "lower", "base": b, "head": h, "head_over_base": h["median"] / b["median"],
            "median_head_minus_base": statistics.median(hw - bw for bw, hw in zip(base, head)),
            "wins": sum(hw < bw for bw, hw in zip(base, head)), "losses": sum(hw > bw for bw, hw in zip(base, head)),
            "pairs": pairs, "identical_outputs": len(digests) == 1 and None not in digests}


def _pair(trees: dict, args: list, base_first: bool) -> dict:
    sides = {side: run_case(trees[side], args) for side in (("base", "head") if base_first else ("head", "base"))}
    digests = {digest for _, digest in sides.values()}
    return {"first": "base" if base_first else "head", "base": sides["base"][0], "head": sides["head"][0],
            "digest": digests.pop() if len(digests) == 1 else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>_cold.json at the repository root")
    parser.add_argument("--runs", type=int, default=10, help="timed pairs per case")
    args = parser.parse_args(argv)

    head = head_identity()
    trees = {"base": export(args.base), "head": export(head["tree"], "tree")}
    results = {}
    for name, command in cases().items():
        for tree in trees.values():
            run_case(tree, command)  # untimed: lets each side write its bytecode, if it may
        case = results[name] = summarize([_pair(trees, command, i % 2 == 0) for i in range(args.runs)])
        print(f"{name} base={case['base']['median']:.4f}s head={case['head']['median']:.4f}s "
              f"paired={case['median_head_minus_base'] * 1e3:+.1f}ms wins={case['wins']}/{args.runs} "
              f"identical={case['identical_outputs']}", flush=True)
    doc = {"label": args.label, "base": trees["base"].name, "head": head,
           "env": {"python": sys.version.split()[0], "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                   "nproc": os.cpu_count(), "loadavg_after": os.getloadavg()},
           "cases": results}
    out = ROOT / f"BENCH_{args.label}_cold.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
