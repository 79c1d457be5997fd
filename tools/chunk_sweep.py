"""Block-size sweep of the Monte-Carlo collision oracle, written to BENCH_<label>_chunk.json.

    python3 tools/chunk_sweep.py --label N [--rounds R]

Times ``thruster.collision_force_density_mc`` from the working tree's ``src/``
at the three acceptance points of ``perfbench/gen.py`` (1e7 samples each, seed
0) for ``chunk`` = 2^15 to 2^20 samples, with BLAS/OpenMP threads pinned to 1
as ``perfbench/run.py`` pins them. The rates and the memory pick the default
chunk. Each round calls every point once at every chunk, starting one chunk
further along the list each round, so drift in machine speed spreads over all
of them. Per chunk the file holds every call's samples per wall second, their
median and quartiles, and the peak bytes that ``tracemalloc`` reports for one
call, per chunk sample.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from gen import ORACLE_FIELDS, ORACLE_POINTS, ORACLE_SAMPLES  # noqa: E402

from ionblimp.thruster import GasIonParams, collision_force_density_mc  # noqa: E402

CHUNKS = tuple(2**k for k in range(15, 21))
POINTS = tuple((GasIonParams(**dict(zip(ORACLE_FIELDS, gas))), slip) for gas, slip in ORACLE_POINTS)


def _rate(gas, slip, chunk: int) -> float:
    start = time.perf_counter()
    collision_force_density_mc(gas, slip, n_samples=ORACLE_SAMPLES, seed=0, chunk=chunk)
    return ORACLE_SAMPLES / (time.perf_counter() - start)


def _peak_bytes_per_sample(chunk: int) -> float:
    gas, slip = POINTS[0]
    tracemalloc.start()
    try:
        collision_force_density_mc(gas, slip, n_samples=ORACLE_SAMPLES, seed=0, chunk=chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / chunk


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    rates = {chunk: [] for chunk in CHUNKS}
    for chunk in CHUNKS:  # one untimed call each, so no timed call pays a first-use cost
        _rate(*POINTS[0], chunk)
    for r in range(args.rounds):
        shift = r % len(CHUNKS)
        for chunk in CHUNKS[shift:] + CHUNKS[:shift]:
            rates[chunk] += [_rate(gas, slip, chunk) for gas, slip in POINTS]
    sweep = {}
    for chunk, values in rates.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        per_sample = _peak_bytes_per_sample(chunk)
        sweep[str(chunk)] = {"peak_traced_bytes_per_chunk_sample": per_sample,
                             "samples_per_s": values, "median": median, "q1": q1, "q3": q3}
        print(f"chunk {chunk:>9,} ({per_sample:.2f} B/sample traced): {median:.4g}/s (q1 {q1:.4g}, q3 {q3:.4g})")
    out = {"label": args.label, "rounds": args.rounds, "n_samples": ORACLE_SAMPLES,
           "env": {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count()},
           "chunks": sweep}
    path = ROOT / f"BENCH_{args.label}_chunk.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
