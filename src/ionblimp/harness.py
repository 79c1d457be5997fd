"""Fixed-step scenario engine, config ingestion and time-series output.

``run_scenario`` steps every scenario through one loop over a plant: a
derivative field, stepped by RK4 over Python floats (``integrate_step``),
its initial state as a tuple, and a controller giving the recorded
state, the thruster command, the integrator input ``u`` and whether the
actuators saturated. In both plants ``u`` is a generalized force held over
the step: the rigid-body plant's is the command's ``thruster_wrench``,
computed once per step, and the pose plant's the SMC force demand. The
recorded state is laid out as ``BodyState``'s fields (``STATE_LABELS``).
The ``CONTROLLERS`` table maps each controller name to the function that
builds its run's plant, once, before the loop:

* ``open_loop`` and ``inner_loop``: ``_rigid_body_plant``, model ``full``
  or ``planar``, under the command law ``demand(t, y)``: the scripted or
  constant command, or the trim feedback. Seeded yaw-gimbal noise and the
  actuator clamp act on either law.
* ``smc``: ``_pose_plant``, the lateral pose model the tracker is designed
  for (position/heading plus their rates). The single-thruster allocation
  is evaluated and recorded at every step (command, saturation, residual)
  so under-actuation is visible, but it does not feed back into this
  idealized loop.

Every step's command is recorded with its servo angles from one fixed map
(``servo_map``): a 90 deg center and travel equal to the gimbal limit, so a
valid ``ThrusterCommand`` is in the servos' range by construction.

Runs are deterministic: a fixed scenario file and seed reproduce output
files byte for byte. Scenario configs are plain-text INI-style files whose
first line must read ``# blimpsim-config v1``; ``read_config`` checks every
section and key against a schema table at load time, and ``smc.read_table``
reads the open-loop script and SMC reference tables. A run's records are
its CSV rows: each ``SimRecord`` is a named tuple whose fields are
``CSV_COLUMNS``, so the column order is the record layout, defined once.
Summaries are ``key=value`` text. A run with no SMC, script or throttle
imports neither numpy nor ``thruster``.
"""

from __future__ import annotations

import bisect
import configparser
import math
from collections import namedtuple
from dataclasses import MISSING, astuple, dataclass, field, fields
from pathlib import Path

from .dynamics import (
    GIMBAL_LIMIT,
    PLANAR_TOL,
    STATE_LABELS,
    AirshipParams,
    BodyState,
    ThrusterCommand,
    full_derivatives,
    planar_derivatives,
    store_floats,
    table_shape,
    thruster_wrench,
)
from .frames import wrap_angle
from .inner_loop import InnerLoopConfig
from .pcg64 import uniform_stream
from .smc import (
    ReferenceTrajectory,
    SmcGains,
    SmcModel,
    TrackingError,
    allocate_actuation,
    lyapunov_monitor,
    pose_acceleration,
    reaching_time_bound,
    read_table,
    sliding_surface,
    smc_control,
)

CONFIG_HEADER = "# blimpsim-config v1"

# The most steps (duration / dt) a scenario may take: over 800x the longest committed scenario, and far below
# the 1e9 steps at which the whole-number check's rel_tol of 1e-9 no longer tells a part of a step apart.
MAX_STEPS = 10_000_000

# The smc pose model is planar and takes no gimbal noise, so it reads none of these keys.
SMC_UNREAD = {"scenario": ("model", "gimbal_noise"), "initial": ("w", "p", "q", "phi", "theta")}

CSV_COLUMNS = (
    "t", *STATE_LABELS,
    "thrust", "delta_y", "delta_p", "servo_yaw_deg", "servo_pitch_deg",
    "s_x", "s_y", "s_psi", "lyap_v", "lyap_vdot", "flags",
)


class NonFiniteState(FloatingPointError):
    """Integration produced a non-finite state component."""


class ScenarioError(RuntimeError):
    """A module error occurred while running a scenario (carries the timestep)."""


def integrate_step(derivative_fn, state, u, dt: float, labels=STATE_LABELS) -> tuple:
    """One RK4 step of state' = f(state, u), u held, over Python floats: float sequence in, float tuple out.

    Each stage is a list computed per component in numpy's order, so the step is bit for bit the array
    form. A stage output of another length raises ValueError; a non-finite result, NonFiniteState.
    """
    if not 0.0 < dt < math.inf:  # nan fails both comparisons
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    n, half, h6 = len(state), 0.5 * dt, dt / 6.0
    k1 = _sized(derivative_fn(state, u), n)
    k2 = _sized(derivative_fn([y + half * k for y, k in zip(state, k1)], u), n)
    k3 = _sized(derivative_fn([y + half * k for y, k in zip(state, k2)], u), n)
    k4 = _sized(derivative_fn([y + dt * k for y, k in zip(state, k3)], u), n)
    result = tuple([y + h6 * (((a + 2.0 * b) + 2.0 * c) + d) for y, a, b, c, d in zip(state, k1, k2, k3, k4)])
    if not all(map(math.isfinite, result)):
        names = ", ".join(labels[i] if labels and i < len(labels) else f"[{i}]"
                          for i, value in enumerate(result) if not math.isfinite(value))
        raise NonFiniteState(f"non-finite state component(s): {names}")
    return result


def _sized(k, n: int):
    if len(k) != n:  # zip would silently truncate the longer of the state and k
        raise ValueError(f"derivative has {len(k)} components, the state has {n}")
    return k


# Zero deflection points a servo at its center; its travel either side is the gimbal limit.
SERVO_CENTER_DEG = 90.0


def servo_map(cmd: ThrusterCommand) -> tuple:
    """(yaw, pitch) servo angles (deg) of a thruster command: a deflection d maps to SERVO_CENTER_DEG + degrees(d).

    ThrusterCommand keeps |d| <= GIMBAL_LIMIT = pi/2, degrees(pi/2) is
    exactly 90.0 and rounding is monotone, so the angles lie in [0, 180].
    """
    return (SERVO_CENTER_DEG + math.degrees(cmd.yaw_deflection),
            SERVO_CENTER_DEG + math.degrees(cmd.pitch_deflection))


# Open-loop values that cannot be set together: the script wins, throttle replaces thrust.
OPEN_LOOP_CONFLICTS = (
    ("thrust", "throttle"), ("script", "thrust"), ("script", "throttle"),
    ("script", "delta_y"), ("script", "delta_p"),
)


@dataclass(frozen=True)
class OpenLoopCommand:
    """Constant command, or a (t, thrust, delta_y, delta_p) script with ZOH, prebuilt as ThrusterCommands."""

    thrust: float = 0.0
    throttle: float | None = None
    delta_y: float = 0.0
    delta_p: float = 0.0
    script: tuple | None = None  # rows of (t, thrust, delta_y, delta_p), float tuples

    def __post_init__(self):
        store_floats(self, tables=("script",))
        if self.script is not None and (shape := table_shape(self.script))[1:] != (4,):
            raise ValueError(f"script needs rows of t, thrust, delta_y, delta_p, got shape {shape}")
        given = {"thrust": self.thrust != 0.0, "throttle": self.throttle is not None,
                 "delta_y": self.delta_y != 0.0, "delta_p": self.delta_p != 0.0,
                 "script": self.script is not None}
        for a, b in OPEN_LOOP_CONFLICTS:
            if given[a] and given[b]:
                raise ValueError(f"{a} and {b} cannot both be set")
        if self.script is None:
            thrust = self.thrust
            if self.throttle is not None:  # thruster (with numpy) is imported by a throttle, not by this module
                from . import thruster
                thrust = thruster.throttle_to_thrust(thruster.THROTTLE_MAP, self.throttle)
            table = [(0.0, ThrusterCommand(thrust, self.delta_y, self.delta_p))]
        else:
            table = []
            for t, thrust, dy, dp in self.script:
                try:
                    if not table and t != 0.0:
                        raise ValueError("the first row must be at t = 0")
                    if table and t <= table[-1][0]:
                        raise ValueError("times must be strictly increasing")
                    table.append((t, ThrusterCommand(thrust, dy, dp)))
                except ValueError as exc:
                    raise ValueError(f"script row at t={t!r}: {exc}") from None
        object.__setattr__(self, "_times", [t for t, _ in table])
        object.__setattr__(self, "_commands", [cmd for _, cmd in table])

    def command_at(self, t: float) -> ThrusterCommand:
        return self._commands[max(bisect.bisect_right(self._times, t) - 1, 0)]


@dataclass(frozen=True)
class SmcScenarioConfig:
    """Gains, plant components and reference for a tracking scenario."""

    gains: SmcGains
    reference: ReferenceTrajectory
    t_max: float = 0.051
    added_mass_x: float = 0.0
    added_mass_y: float = 0.0
    added_inertia_z: float = 0.0
    cg_x: float = 0.0
    cg_y: float = 0.0

    def __post_init__(self):
        store_floats(self, ("t_max", "added_mass_x", "added_mass_y", "added_inertia_z", "cg_x", "cg_y"),
                     positive=("t_max",))


@dataclass(frozen=True)
class Scenario:
    params: AirshipParams = field(default_factory=AirshipParams)
    initial: BodyState = field(default_factory=BodyState)
    model: str = "planar"
    controller: str = "open_loop"
    duration: float = 10.0
    dt: float = 0.001
    seed: int = 0
    gimbal_noise: float = 0.0  # rad, uniform zero-mean yaw-command noise
    open_loop: OpenLoopCommand = field(default_factory=OpenLoopCommand)
    inner_loop: InnerLoopConfig | None = None
    smc: SmcScenarioConfig | None = None
    csv_path: str | None = None
    summary_path: str | None = None

    def __post_init__(self):
        store_floats(self, ("duration", "dt", "gimbal_noise"), positive=("dt",), non_negative=("gimbal_noise",))
        if self.model not in ("full", "planar"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if self.duration < self.dt:
            raise ValueError("duration must be at least one step")
        if not self.duration / self.dt <= MAX_STEPS:  # a quotient that overflows to inf fails too
            raise ValueError(f"duration / dt must be at most {MAX_STEPS} steps, got duration={self.duration!r}, "
                             f"dt={self.dt!r}")
        if not math.isclose(round(self.duration / self.dt) * self.dt, self.duration, rel_tol=1e-9):
            raise ValueError(f"duration {self.duration} s is not a whole number of dt={self.dt} s steps")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not math.isfinite(2.0 * self.gimbal_noise):  # each draw's span high - low, which uniform_stream refuses
            raise ValueError(f"gimbal_noise overflows the draw width 2 * gimbal_noise, got {self.gimbal_noise!r}")
        # Each controller's section is the field named after it: its own must be set, another's unset.
        if self.controller != "open_loop" and getattr(self, self.controller) is None:
            raise ValueError(f"{self.controller} controller requires an [{self.controller}] section")
        for name in CONTROLLERS:
            if name != self.controller and getattr(self, name) not in (None, OpenLoopCommand()):
                raise ValueError(f"{name}: not read by the {self.controller} controller")
        last = self.open_loop.script[-1][0] if self.open_loop.script else 0.0
        if last > self.duration:  # the run would never reach that row
            raise ValueError(f"open_loop: script row at t={last!r}: after the end, duration={self.duration!r}")
        if self.controller == "smc":  # only the SMC_UNREAD values the pose model runs
            fixed = [(key, getattr(self, key), getattr(Scenario, key)) for key in SMC_UNREAD["scenario"]]
            fixed += [(f"initial.{k}", getattr(self.initial, k), 0.0) for k in SMC_UNREAD["initial"]]
            for name, got, value in fixed:
                if got != value:
                    raise ValueError(f"{name}: must be {value!r} with the smc controller, got {got!r}")
        elif self.model == "planar":  # planar_derivatives' own bound, checked before step 0
            for k in ("phi", "theta", "p", "q"):
                got = getattr(self.initial, k)
                if abs(got) > PLANAR_TOL:
                    raise ValueError(f"initial.{k}: must be 0.0 with the planar model, got {got!r}")


class SimRecord(namedtuple("SimRecord", CSV_COLUMNS)):
    """One sample of a run, which is one CSV row: its fields are CSV_COLUMNS.

    ``rec[1:13]`` is the state. ``s_*``/``lyap_*`` are None outside SMC runs;
    ``flags`` is a sorted tuple of flag names.
    """

    __slots__ = ()

    @property
    def s(self) -> np.ndarray | None:
        """Sliding variable (s_x, s_y, s_psi), or None outside SMC runs."""
        import numpy as np
        return None if self.s_x is None else np.array((self.s_x, self.s_y, self.s_psi))


@dataclass(frozen=True)
class SimResult:
    records: list
    summary: dict

    def states(self) -> np.ndarray:
        import numpy as np
        return np.array([rec[1:13] for rec in self.records])


# What the run loop integrates: derivative(y, u) from the tuple y0
# (components named by labels), driven by control(t, y) -> (12 recorded
# state floats, command, integrator input u, saturated, (s_x, s_y, s_psi,
# lyap_v, lyap_vdot)), the last all None outside SMC. u is a generalized
# force held over the step: the thrust wrench, or the SMC force demand. A
# controller reads the integrator state y, not the recorded state: the pose
# plant records body (u, v) rotated from (x_dot, y_dot), and rotating them
# back would not give the SMC the same bits.
Plant = namedtuple("Plant", "derivative y0 labels control")


def _rigid_body_plant(sc: Scenario, demand) -> Plant:
    """Full or planar field under demand(t, y) -> (thrust, delta_y, delta_p), with seeded gimbal noise."""
    deriv = full_derivatives if sc.model == "full" else planar_derivatives
    noise = uniform_stream(sc.seed) if sc.gimbal_noise > 0.0 else None  # a zero-width draw would turn -0.0 into 0.0

    def control(t, y):
        thrust, dy, dp = demand(t, y)
        if noise is not None:
            dy = dy + noise(-sc.gimbal_noise, sc.gimbal_noise)
        # Clamp to the actuator limits and flag it: max(thrust, 0.0) and min(max(d, -lim), lim) as comparisons,
        # which keep nan (ThrusterCommand refuses it) and -0.0.
        lim = GIMBAL_LIMIT
        limited = (0.0 if thrust < 0.0 else thrust,
                   -lim if dy < -lim else lim if dy > lim else dy,
                   -lim if dp < -lim else lim if dp > lim else dp)
        cmd = ThrusterCommand(*limited)
        state = (*y[:9], wrap_angle(y[9]), wrap_angle(y[10]), wrap_angle(y[11]))  # the angles wrapped
        return state, cmd, thruster_wrench(sc.params, cmd), limited != (thrust, dy, dp), (None,) * 5

    return Plant(lambda vec, wrench: deriv(sc.params, vec, wrench), astuple(sc.initial), STATE_LABELS, control)


def _open_loop_plant(sc: Scenario) -> Plant:
    """Open loop: the scripted or constant command at t."""

    def demand(t, y):
        cmd = sc.open_loop.command_at(t)
        return cmd.thrust, cmd.yaw_deflection, cmd.pitch_deflection

    return _rigid_body_plant(sc, demand)


def _inner_loop_plant(sc: Scenario) -> Plant:
    """Inner loop: trim feedback, thrust on u, yaw deflection on (v, r), pitch deflection on w."""
    il = sc.inner_loop

    def demand(t, y):
        return (il.trim_thrust - il.k_u * (y[0] - il.trim_speed),
                -il.k1 * y[1] - il.k2 * y[5], il.k_w * y[2])

    return _rigid_body_plant(sc, demand)


def _pose_plant(sc: Scenario) -> Plant:
    """SMC on the pose state (x, y, psi, x_dot, y_dot, psi_dot)."""
    cfg = sc.smc
    model = SmcModel.from_components(
        mass=sc.params.mass, inertia_z=sc.params.inertia_z,
        added_mass_x=cfg.added_mass_x, added_mass_y=cfg.added_mass_y,
        added_inertia_z=cfg.added_inertia_z, cg_x=cfg.cg_x, cg_y=cfg.cg_y,
        aero_matrix=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, -sc.params.yaw_damping)),
    )
    gains = cfg.gains
    init = sc.initial
    c0, s0 = math.cos(init.psi), math.sin(init.psi)
    # eta_dot = C_bg(psi)^T (u, v, r)
    y0 = (init.x, init.y, init.psi, c0 * init.u - s0 * init.v, s0 * init.u + c0 * init.v, init.r)

    def derivative(vec, u_forces):
        eta_dot = vec[3:6]
        return (*eta_dot, *pose_acceleration(model, u_forces, eta_dot, vec[2]))

    def control(t, y):
        x, y_pos, psi, x_dot, y_dot, psi_dot = y
        ref_pose, ref_rate = cfg.reference.sample(t)
        err = TrackingError.from_pose((x, y_pos, psi), (x_dot, y_dot, psi_dot), ref_pose, ref_rate)
        s = sliding_surface(gains, err)
        v, v_dot = lyapunov_monitor(gains, s)
        u_forces = smc_control(model, gains, s, err.error_rate, (x_dot, y_dot, psi_dot), psi)
        cmd, residual = allocate_actuation(u_forces, t_max=cfg.t_max, mount_arm_x=sc.params.mount_x)
        c, sn = math.cos(psi), math.sin(psi)
        state = (c * x_dot + sn * y_dot, -sn * x_dot + c * y_dot, 0.0, 0.0, 0.0, psi_dot,
                 x, y_pos, init.h, 0.0, 0.0, wrap_angle(psi))
        return state, cmd, u_forces, max(map(abs, residual)) > 1e-9, (*s, sum(v), sum(v_dot))

    return Plant(derivative, y0, ("x", "y", "psi", "x_dot", "y_dot", "psi_dot"), control)


# Each controller reads the config section named after it and no other
# controller's. Its entry builds the run's plant, once, from the scenario.
CONTROLLERS = {"open_loop": _open_loop_plant, "inner_loop": _inner_loop_plant, "smc": _pose_plant}


def run_scenario(sc: Scenario) -> SimResult:
    """Run a scenario to completion and, if paths are set, write its outputs."""
    plant = CONTROLLERS[sc.controller](sc)
    n_steps = int(round(sc.duration / sc.dt))
    y = plant.y0
    records = []
    for step in range(n_steps + 1):
        t = step * sc.dt
        try:  # one failure path: the controller's and the integrator's errors carry the step
            state, cmd, u, saturated, internals = plant.control(t, y)
            if step < n_steps:
                y = integrate_step(plant.derivative, y, u, sc.dt, plant.labels)
        except Exception as exc:
            raise ScenarioError(f"step {step} (t={t:.6f} s): {exc}") from exc
        flags = ("ground",) * (state[8] < 0.0) + ("saturation",) * saturated  # sorted
        records.append(SimRecord(t, *state, cmd.thrust, cmd.yaw_deflection, cmd.pitch_deflection,
                                 *servo_map(cmd), *internals, flags))
    result = SimResult(records=records, summary=_summarize(sc, records))
    if sc.csv_path:
        write_records_csv(result.records, sc.csv_path)
    if sc.summary_path:
        Path(sc.summary_path).write_text(format_summary(result.summary), encoding="utf-8")
    return result


def _pairwise_sum(values: list) -> float:
    """numpy's float64 sum: halves split at a multiple of 8 above 128 values, else 8 accumulators, then the rest."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    whole, acc = n - n % 8, values[:8]
    for i in range(8, whole, 8):
        acc = [a + b for a, b in zip(acc, values[i:i + 8])]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) if whole else 0.0
    for value in values[whole:]:
        total += value
    return total


def _mean(values: list) -> float:
    """np.mean of a non-empty float list, bit for bit: its identity 0.0 plus the pairwise sum, over n."""
    return (0.0 + _pairwise_sum(values)) / len(values)


def _summarize(sc: Scenario, records) -> dict:
    # Each norm summed as np.linalg.norm(..., axis=1) sums it, so the statistics keep numpy's bits.
    speeds = [math.sqrt((u * u + v * v) + w * w) for u, v, w in (rec[1:4] for rec in records)]
    tail = max(1, len(records) // 10)
    final = records[-1]
    summary = {
        "model": sc.model,
        "controller": sc.controller,
        "dt": sc.dt,
        "duration": sc.duration,
        "steps": len(records) - 1,
        "seed": sc.seed,
        "max_speed": max(speeds),
        "steady_speed": _mean(speeds[-tail:]),
        "speed_drift": abs(speeds[-1] - speeds[-tail]),
        "final_u": final.u,
        "final_x": final.x,
        "final_y": final.y,
        "final_h": final.h,
        "final_psi": final.psi,
        "saturation_steps": sum(1 for rec in records if "saturation" in rec.flags),
        "ground_steps": sum(1 for rec in records if "ground" in rec.flags),
    }
    if sc.controller == "smc":  # each sample's max-norm of s, as np.max(np.abs(s), axis=1) gave it
        s_inf = [max(abs(rec.s_x), abs(rec.s_y), abs(rec.s_psi)) for rec in records]
        first = records[0]
        summary.update(
            s0_inf=s_inf[0],
            reaching_bound=max(reaching_time_bound(sc.smc.gains, s) for s in (first.s_x, first.s_y, first.s_psi)),
            reaching_time=next((rec.t for rec, s in zip(records, s_inf) if s < 1e-3), math.inf),
            s_final_max=max(s_inf[-tail:]),
            vdot_max=max(rec.lyap_vdot for rec in records),
            s_energy_final=records[-1].lyap_v,
        )
    return summary


def write_records_csv(records, path) -> None:
    """Write SimRecords as CSV rows in CSV_COLUMNS order: a float as its repr, None as an empty cell."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        cells = ["" if value is None else repr(value) for value in rec[:-1]]
        lines.append(",".join([*cells, ";".join(rec.flags)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def format_summary(summary: dict) -> str:
    """key=value lines, one per summary entry, stable order; floats as their repr."""
    return "".join(f"{key}={repr(val) if isinstance(val, float) else val}\n" for key, val in summary.items())


# ---------------------------------------------------------------------------
# Scenario config files
# ---------------------------------------------------------------------------

def _path(text: str) -> Path:
    if not text:
        raise ValueError("empty path")
    return Path(text)


# The [smc] keys: the gains' fields, then the tracking scenario's own.
_SMC_FIELDS = [f for f in (*fields(SmcGains), *fields(SmcScenarioConfig)) if f.name != "gains"]

# Everything a scenario file may contain: section -> key -> converter.
# A converter returning a Path marks a file name, resolved by read_config.
# A float is checked once, as finite, by store_floats in the dataclass its section builds.
SCENARIO_SCHEMA = {
    "scenario": {"model": str, "controller": str, "duration": float, "dt": float, "seed": int, "gimbal_noise": float},
    "params": dict.fromkeys((f.name for f in fields(AirshipParams)), float),
    "initial": dict.fromkeys(STATE_LABELS, float),
    "open_loop": {"thrust": float, "throttle": float, "delta_y": float, "delta_p": float, "script": _path},
    "inner_loop": dict.fromkeys((f.name for f in fields(InnerLoopConfig)), float),
    "smc": {f.name: _path if f.name == "reference" else float for f in _SMC_FIELDS},
    "output": {"csv": _path, "summary": _path},
}


def read_config(path, schema: dict) -> dict:
    """Read a versioned config file as {section: {key: converted value}}.

    The first line must be CONFIG_HEADER. Every section and key must appear
    in ``schema``; an unknown one, or a value its converter rejects, raises
    ValueError naming it. Paths resolve against the file's own directory.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    first_line = text.splitlines()[0].strip() if text.strip() else ""
    if first_line != CONFIG_HEADER:
        raise ValueError(f"{path}: first line must be {CONFIG_HEADER!r}, got {first_line!r}")
    # No default section: a [DEFAULT] header is an unknown section like any other. No % expansion either.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="", interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:  # its message names the file and the line, over several lines
        raise ValueError(" ".join(str(exc).split())) from None
    config = {}
    for section in parser.sections():
        if section not in schema:
            raise ValueError(f"{path}: unknown section [{section}]")
        config[section] = {}
        for key, raw in parser.items(section):
            if key not in schema[section]:
                raise ValueError(f"{path}: unknown key [{section}] {key}")
            try:
                value = schema[section][key](raw)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
            config[section][key] = path.parent / value if isinstance(value, Path) else value
    return config


# Keys a section must set when it is present: the fields with no default.
REQUIRED_KEYS = {
    "inner_loop": [f.name for f in fields(InnerLoopConfig) if f.default is MISSING],
    "smc": [f.name for f in _SMC_FIELDS if f.default is MISSING],
}


def _section(path, name: str, make, values: dict):
    """make(**values) once the REQUIRED_KEYS are set; a ValueError is prefixed with the file and [name]."""
    try:
        for key in REQUIRED_KEYS.get(name, ()):
            if key not in values:
                raise ValueError(f"{key}: required")
        return make(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: [{name}] {exc}") from None


def _open_loop(script=None, **values) -> OpenLoopCommand:
    return OpenLoopCommand(script=None if script is None else read_table(script), **values)


def _smc_config(reference, **values) -> SmcScenarioConfig:
    gains = SmcGains(**{f.name: values.pop(f.name) for f in fields(SmcGains) if f.name in values})
    return SmcScenarioConfig(gains=gains, reference=ReferenceTrajectory.from_file(reference), **values)


def load_scenario(path) -> Scenario:
    """Parse a versioned scenario config file into a Scenario (see read_config)."""
    config = read_config(path, SCENARIO_SCHEMA)
    controller = config.get("scenario", {}).get("controller", Scenario.controller)
    unread = [f"[{s}]" for s in CONTROLLERS if s != controller and s in config]
    if controller == "smc":
        unread += [f"[{s}] {k}" for s, keys in SMC_UNREAD.items() for k in keys if k in config.get(s, {})]
    if unread and controller in CONTROLLERS:  # an unknown controller is Scenario's error
        raise ValueError(f"{path}: {unread[0]}: not read by the {controller} controller")

    open_loop = config.get("open_loop", {})
    # Keys, not values: a pair is an error even when one key holds its default.
    for a, b in OPEN_LOOP_CONFLICTS:
        if a in open_loop and b in open_loop:
            raise ValueError(f"{path}: [open_loop] {a} and {b} cannot both be set")

    # These Scenario fields are named after the sections they are built from.
    makers = {"params": AirshipParams, "initial": BodyState, "open_loop": _open_loop,
              "inner_loop": InnerLoopConfig, "smc": _smc_config}
    built = {s: _section(path, s, make, config[s]) for s, make in makers.items() if s in config}
    output = {key: str(value) for key, value in config.get("output", {}).items()}
    return _section(path, "scenario", Scenario, dict(
        csv_path=output.get("csv"),
        summary_path=output.get("summary"),
        **built,
        **config.get("scenario", {}),
    ))
