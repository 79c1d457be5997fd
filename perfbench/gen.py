"""Seeded input generator: writes each workload's input files into a run directory.

Every input is an ordinary ``# blimpsim-config v1`` file (plus a plain
reference table for the SMC workload), so the program only ever sees files
it would accept from a user. The same (workload, seed) always gives
byte-identical files: values come from ``random.Random`` seeded with a
string and are written with ``repr``.
"""

import math
import random
from pathlib import Path

HEADER = "# blimpsim-config v1"

WORKLOADS = ("full_6dof", "smc_tracking", "inner_loop_csv", "collision_oracle")

# The three operating points of acceptance criterion 4 (ion mass, neutral
# mass, temperature, charge, cross section, ion density, neutral density,
# slip velocity). Only the Monte-Carlo seeds come from the benchmark seed.
ORACLE_POINTS = (
    ((4.65e-26, 4.65e-26, 300.0, 1.602176634e-19, 1e-19, 1e15, 2.5e25), (100.0, 0.0, 0.0)),
    ((4.65e-26, 4.65e-26, 300.0, 1.602176634e-19, 1e-19, 1e15, 2.5e25), (0.0, -80.0, 0.0)),
    ((2.18e-26, 6.63e-26, 250.0, 1.602176634e-19, 1e-19, 1e15, 2.5e25), (50.0, 20.0, 0.0)),
)
ORACLE_FIELDS = (
    "ion_mass", "neutral_mass", "temperature", "ion_charge",
    "cross_section", "ion_density", "neutral_density",
)
ORACLE_SAMPLES = 10_000_000


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    """Magnitude in [lo, hi] with a random sign (never zero when lo > 0)."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _section(name: str, items) -> str:
    lines = (f"{key} = {value if isinstance(value, str) else repr(value)}\n" for key, value in items)
    return f"[{name}]\n" + "".join(lines) + "\n"


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _full_6dof(rng, seed, out):
    scenario = [("model", "full"), ("controller", "open_loop"),
                ("duration", 0.5), ("dt", 0.001), ("seed", seed)]
    params = [("inertia_xz", rng.uniform(0.0005, 0.002)),
              ("lift_slope", rng.uniform(0.01, 0.05)),
              ("moment_slope", rng.uniform(0.002, 0.01))]
    # Airspeed well above V_EPS so no aero_wrench call takes the stagnant exit.
    initial = [("u", rng.uniform(0.2, 0.5)), ("v", rng.uniform(-0.05, 0.05)),
               ("w", rng.uniform(-0.05, 0.05)),
               ("p", _signed(rng, 0.01, 0.05)), ("q", _signed(rng, 0.01, 0.05)),
               ("r", _signed(rng, 0.01, 0.05)),
               ("h", 1.8), ("phi", rng.uniform(-0.1, 0.1)),
               ("theta", rng.uniform(-0.1, 0.1)), ("psi", rng.uniform(-math.pi, math.pi))]
    command = [("thrust", rng.uniform(0.005, 0.02)), ("delta_y", rng.uniform(-0.3, 0.3)),
               ("delta_p", rng.uniform(-0.2, 0.2))]
    text = (HEADER + "\n\n" + _section("scenario", scenario) + _section("params", params)
            + _section("initial", initial) + _section("open_loop", command))
    return {"scenario": _write(out / "full_6dof.cfg", text)}


def _smc_tracking(rng, seed, out):
    # Piecewise-linear waypoints; the last segment repeats its pose so the
    # reference is constant from T_CONST on and the reaching bound applies.
    t1 = rng.uniform(0.8, 1.2)
    t_const = t1 + rng.uniform(0.7, 1.0)
    t_end = t_const + rng.uniform(0.5, 1.0)
    pose = [0.0, 0.0, rng.uniform(-0.2, 0.2)]
    rows = [(0.0, *pose)]
    for t in (t1, t_const):
        pose = [pose[0] + rng.uniform(-0.1, 0.1), pose[1] + rng.uniform(-0.1, 0.1),
                pose[2] + rng.uniform(-0.1, 0.1)]
        rows.append((t, *pose))
    rows.append((t_end, *pose))
    table = "# t  x_e  y_e  psi_e\n" + "".join(" ".join(repr(v) for v in row) + "\n" for row in rows)
    _write(out / "smc_reference.txt", table)

    scenario = [("controller", "smc"), ("duration", 5.0), ("dt", 0.001), ("seed", seed)]
    initial = [("x", rng.uniform(-0.1, 0.1)), ("y", rng.uniform(-0.1, 0.1)),
               ("u", rng.uniform(-0.02, 0.02)), ("v", rng.uniform(-0.02, 0.02)),
               ("r", rng.uniform(-0.02, 0.02)), ("h", 1.8),
               ("psi", rng.uniform(-0.2, 0.2))]
    smc = [("c1", rng.uniform(0.8, 1.2)), ("c2", rng.uniform(0.8, 1.2)),
           ("epsilon", rng.uniform(0.05, 0.08)), ("k", rng.uniform(1.0, 1.5)),
           ("t_max", 0.051), ("reference", "smc_reference.txt")]
    text = (HEADER + "\n\n" + _section("scenario", scenario) + _section("initial", initial)
            + _section("smc", smc))
    return {"scenario": _write(out / "smc_tracking.cfg", text), "t_const": t_const}


def _inner_loop_csv(rng, seed, out):
    params = [("drag_coeff", rng.uniform(0.006, 0.012)),
              ("lift_slope", rng.uniform(0.0, 0.02)),
              ("moment_slope", rng.uniform(0.0, 0.01))]
    trim = [("speed", rng.uniform(0.3, 0.6)), ("thrust", rng.uniform(0.02, 0.05))]
    # Grids start at destabilizing negative gains, so the search certifies
    # (and rejects) several pairs before it finds a stabilizing one.
    k1_grid = f"{rng.uniform(-3.0, -1.0)!r}:{rng.uniform(2.0, 5.0)!r}:{rng.randint(6, 12)}"
    k2_grid = f"{rng.uniform(-3.0, -1.0)!r}:{rng.uniform(2.0, 5.0)!r}:{rng.randint(6, 12)}"
    params_cfg = _write(out / "inner_params.cfg",
                        HEADER + "\n\n" + _section("params", params) + _section("trim", trim))

    speed = trim[0][1]
    scenario = [("model", "planar"), ("controller", "inner_loop"), ("duration", 0.5),
                ("dt", 0.001), ("seed", seed), ("gimbal_noise", rng.uniform(0.005, 0.03))]
    initial = [("u", speed + rng.uniform(-0.1, 0.1)), ("v", rng.uniform(-0.05, 0.05)),
               ("r", rng.uniform(-0.05, 0.05)), ("h", 1.8),
               ("psi", rng.uniform(-math.pi, math.pi))]
    # The run replaces the placeholder [inner_loop] gains with the ones
    # certify-gains reports (design, then fly); set-up loads this file as is.
    placeholder = {"trim_speed": repr(speed), "trim_thrust": repr(trim[1][1]),
                   "k_u": "0.0", "k_w": "0.0", "k1": "0.0", "k2": "0.0"}
    base = _write(out / "inner_flight_base.cfg",
                  HEADER + "\n\n" + _section("scenario", scenario) + _section("params", params)
                  + _section("initial", initial) + inner_loop_section(placeholder))
    return {"params": params_cfg, "flight_base": base, "k1": k1_grid, "k2": k2_grid,
            "flight": out / "inner_flight.cfg", "csv": out / "inner_flight.csv",
            "summary": out / "inner_flight_summary.txt"}


def inner_loop_section(report: dict) -> str:
    """The [inner_loop] section built from a certify-gains key=value report."""
    keys = ("trim_speed", "trim_thrust", "k_u", "k_w", "k1", "k2")
    return "[inner_loop]\n" + "".join(f"{key} = {report[key]}\n" for key in keys)


def _collision_oracle(rng, seed, out):
    text = HEADER + "\n\n"
    for i, (gas, slip) in enumerate(ORACLE_POINTS):
        items = list(zip(ORACLE_FIELDS, gas))
        items += [("slip", " ".join(repr(v) for v in slip)),
                  ("seed", rng.getrandbits(32)), ("n_samples", ORACLE_SAMPLES)]
        text += _section(f"point{i}", items)
    return {"oracle": _write(out / "oracle.cfg", text)}


_GENERATORS = {
    "full_6dof": _full_6dof,
    "smc_tracking": _smc_tracking,
    "inner_loop_csv": _inner_loop_csv,
    "collision_oracle": _collision_oracle,
}


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write the workload's input files for this seed into out_dir.

    Returns a plan: the paths of the generated files plus the few derived
    values the output check needs (e.g. when the SMC reference goes constant).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = _GENERATORS[workload](_rng(workload, seed), seed, out)
    return {key: str(val) if isinstance(val, Path) else val for key, val in plan.items()}
