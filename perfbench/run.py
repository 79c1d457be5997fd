"""ionblimp benchmark: one command runs a workload for a seed and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, smoke-checks the committed
demo scenarios, then launches measured runs one at a time, each in a fresh
interpreter (``worker.py``) with BLAS/OpenMP threads pinned to 1, until
``--seconds`` have passed. Every run's outputs are checked. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics, the end-to-end ones with ``--trace 0`` and the
per-layer ones (from a traced run, see ``spans.py``) with ``--trace 1``.
The lines before it give each metric's median, quartiles and sample count,
and the environment. ``work_per_s`` and ``setup_s`` are scaled to a nominal
core speed (``calibrate.py``); the uncorrected values are printed as well. Run files (inputs, CSV, spans, result.json) go to
``.bench_runs/<workload>/`` at the repository root.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

RUN_ROOT = ROOT / ".bench_runs"
SMOKE_SCENARIOS = ("demos/scenarios/hover.cfg", "demos/scenarios/heading_step.cfg")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 3  # set-up-only interpreters per invocation, besides the measured ones
MIN_RUNS = 2  # measured runs (or untraced/traced pairs) however short --seconds is
LAST_START = 120.0  # no run starts later than this many seconds into the invocation
TIME_LIMIT = 170.0  # every run is killed by then

END_TO_END = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_TOTALS = {"trace.wall_s": "s", "trace.unwrapped_s": "s", "trace.overhead_s": "s"}
PER_LAYER = {**{name: spans.KIND_UNITS[spans.split_metric(name)[1]] for name in spans.PER_LAYER},
             **TRACE_TOTALS}


def _stats(name: str, values: list, unit: str) -> dict:
    """Median, quartiles and count of one metric's samples, printed on one line."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"{name:<64} median={median:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} n={len(values):<4} {unit}")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


class Runner:
    """Launches worker processes one at a time and counts attempts and failures."""

    def __init__(self, workload: str, seed: int, plan: dict, run_dir: Path):
        self.workload, self.seed, self.plan, self.run_dir = workload, seed, plan, run_dir
        self.env = {**os.environ, **{var: "1" for var in THREAD_VARS}, "PYTHONHASHSEED": "0"}
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, mode: str, **extra) -> subprocess.Popen:
        job = {"mode": mode, "workload": self.workload, "seed": self.seed,
               "plan": self.plan, "run_id": self.attempted, **extra}
        self.attempted += 1
        return subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    def collect(self, proc: subprocess.Popen, label: str):
        """The run's JSON result, or None if it gave none; a failed run is recorded."""
        try:
            out, err = proc.communicate(timeout=max(1.0, TIME_LIMIT - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.failures.append(f"{label}: killed after the {TIME_LIMIT:.0f} s limit")
            return None
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self.failures.append(f"{label}: exit {proc.returncode}, no result: {err.strip()[-500:]}")
            return None
        if proc.returncode != 0 or result["failures"]:
            self.failures.append(f"{label}: " + "; ".join(result["failures"]))
        return result

    def run(self, mode: str, **extra):
        return self.collect(self.spawn(mode, **extra), f"{mode} run {self.attempted}")

    def more(self, count: int, stop: float) -> bool:
        return self.elapsed() < LAST_START and (count < MIN_RUNS or time.perf_counter() < stop)


def smoke(runner: Runner) -> None:
    """Both committed demo scenarios, untimed, in parallel."""
    procs = [(runner.spawn("smoke", scenario=str(ROOT / path)), path) for path in SMOKE_SCENARIOS]
    for proc, path in procs:
        runner.collect(proc, f"smoke {path}")


def measure(runner: Runner, seconds: int):
    """End-to-end samples corrected to nominal core speed, and the raw ones."""
    setups = [r for r in (runner.run("setup") for _ in range(SETUP_RUNS)) if r and "setup_slowdown" in r]
    stop = time.perf_counter() + seconds
    attempts = []
    while runner.more(len(attempts), stop):
        attempts.append(runner.run("run"))
    runs = [r for r in attempts if r and "samples" in r]
    if not runs:
        return None, None
    setups += runs
    samples = [s for r in runs for s in r["samples"]]
    corrected = {
        "work_per_s": [work * slow / secs for work, secs, slow in samples],
        "setup_s": [r["setup_s"] / r["setup_slowdown"] for r in setups],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in runs],
    }
    raw = {
        "work_per_s": [work / secs for work, secs, _ in samples],
        "setup_s": [r["setup_s"] for r in setups],
        "core_slowdown": [slow for _, _, slow in samples],
    }
    return corrected, raw


def measure_traced(runner: Runner, seconds: int):
    pairs = []
    stop = time.perf_counter() + seconds
    while runner.more(len(pairs), stop):
        pairs.append((runner.run("run"),
                      runner.run("trace", spans=str(runner.run_dir / f"spans-{runner.attempted}.npz"))))
    plain = [p for p, _ in pairs if p and "exec_s" in p]
    traced = [t for _, t in pairs if t and "layers" in t]
    if not plain or not traced:
        return None, None
    counts = [{m: v for m, v in r["layers"].items() if spans.split_metric(m)[1] in spans.COUNT_KINDS}
              for r in traced]
    if any(c != counts[0] for c in counts):
        runner.failures.append(f"per-layer counts differ between traced runs of one seed: {counts}")
    samples = {metric: [r["layers"][metric] for r in traced] for metric in spans.PER_LAYER}
    walls = [r["exec_s"] for r in traced]
    samples["trace.wall_s"] = walls
    samples["trace.unwrapped_s"] = [r["exec_s"] - r["root_s"] for r in traced]
    samples["trace.overhead_s"] = [statistics.median(walls) - statistics.median(r["exec_s"] for r in plain)]
    return samples, traced[0]


def report_split(run: dict) -> None:
    """Self-time split of one traced run; self times plus the remainder give the wall time."""
    print(f"time split of traced run ({run['exec_s']:.4f} s wall):")
    for name, (calls, self_s) in sorted(run["split"].items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:<40} calls={calls:<8} self_s={self_s:.6f} ({self_s / run['exec_s']:.1%})")
    unwrapped = run["exec_s"] - run["root_s"]
    print(f"  sum of self times {run['root_s']:.6f} s + unwrapped {unwrapped:.6f} s"
          f" = traced wall {run['exec_s']:.6f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    missing = [p for p in ("src/ionblimp/__init__.py", *SMOKE_SCENARIOS) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2

    run_dir = RUN_ROOT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = gen.generate(args.workload, args.seed, run_dir)
    load_before = _loadavg()
    runner = Runner(args.workload, args.seed, plan, run_dir)
    smoke(runner)
    if args.trace:
        samples, extra = measure_traced(runner, args.seconds)
        units = PER_LAYER
    else:
        samples, extra = measure(runner, args.seconds)
        units = END_TO_END
    env = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": _loadavg(),
        "threads": {var: runner.env[var] for var in THREAD_VARS},
    }
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if samples is None:
        print("error: no measured run succeeded", file=sys.stderr)
        return 1

    failed = len(runner.failures)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"runs attempted={runner.attempted} failed={failed} failed_ratio={failed / runner.attempted:.4f}")
    table = {name: _stats(name, samples[name], unit) for name, unit in units.items()}
    if args.trace:
        report_split(extra)
    else:
        print("uncorrected for core speed (see calibrate.py):")
        table.update({f"raw.{name}": _stats(f"raw.{name}", values, "")
                      for name, values in extra.items()})
    print("env " + json.dumps(env))
    (run_dir / "result.json").write_text(json.dumps(
        {"args": vars(args), "metrics": table, "env": env, "failures": runner.failures}, indent=1) + "\n")
    metrics = {name: {"value": table[name]["median"], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
