"""Fixed-step scenario engine, config ingestion and time-series output.

``run_scenario`` steps every scenario through one loop over a plant: a
derivative field integrated with classic fixed-step RK4, its initial
vector, and a controller giving the recorded state, the thruster command
and the input held over the step. Two functions build the plant:

* ``_rigid_body_plant``: model ``full`` or ``planar`` with the
  ``open_loop`` or ``inner_loop`` controller.
* ``_pose_plant``: controller ``smc`` on the lateral pose model the tracker
  is designed for (position/heading plus their rates). The single-thruster
  allocation is evaluated and recorded at every step (command, saturation,
  residual) so under-actuation is visible, but it does not feed back into
  this idealized loop.

Every step's command is recorded with its servo angles from one fixed map
(``servo_map``): a 90 deg center and travel equal to the gimbal limit.

Runs are deterministic: a fixed scenario file and seed reproduce output
files byte for byte. Scenario configs are plain-text INI-style files whose
first line must read ``# blimpsim-config v1``; ``read_config`` checks every
section and key against a schema table at load time, and ``smc.read_table``
reads the open-loop script and SMC reference tables. A run's records are
its CSV rows: each ``SimRecord`` is a named tuple whose fields are
``CSV_COLUMNS``, so the column order is the record layout, defined once.
Summaries are ``key=value`` text.
"""

import configparser
import csv
import io
import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dynamics import (
    GIMBAL_LIMIT,
    AirshipParams,
    BodyState,
    ThrusterCommand,
    full_derivatives,
    planar_derivatives,
    require_finite,
)
from .frames import AttitudeAngles, wrap_angle
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
from .thruster import THROTTLE_MAP, throttle_to_thrust

CONFIG_HEADER = "# blimpsim-config v1"

STATE_LABELS = ("u", "v", "w", "p", "q", "r", "x", "y", "h", "phi", "theta", "psi")

CSV_COLUMNS = (
    "t", *STATE_LABELS,
    "thrust", "delta_y", "delta_p", "servo_yaw_deg", "servo_pitch_deg",
    "s_x", "s_y", "s_psi", "lyap_v", "lyap_vdot", "flags",
)


class NonFiniteState(FloatingPointError):
    """Integration produced a non-finite state component."""


class ScenarioError(RuntimeError):
    """A module error occurred while running a scenario (carries the timestep)."""


def integrate_step(derivative_fn, state, u, dt: float, labels=STATE_LABELS) -> np.ndarray:
    """One classic 4th-order Runge-Kutta step of state' = f(state, u).

    The input u is held constant over the step. Raises NonFiniteState with
    the offending components named if the result is not finite.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(derivative_fn(y, u))
    k2 = np.asarray(derivative_fn(y + 0.5 * dt * k1, u))
    k3 = np.asarray(derivative_fn(y + 0.5 * dt * k2, u))
    k4 = np.asarray(derivative_fn(y + dt * k3, u))
    result = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(result)):
        bad = np.flatnonzero(~np.isfinite(result))
        names = ", ".join(labels[i] if labels and i < len(labels) else f"[{i}]" for i in bad)
        raise NonFiniteState(f"non-finite state component(s): {names}")
    return result


# Zero deflection points a servo at its center; its travel either side is the gimbal limit.
SERVO_CENTER_DEG = 90.0
_SERVO_RANGE_DEG = (SERVO_CENTER_DEG - math.degrees(GIMBAL_LIMIT),
                    SERVO_CENTER_DEG + math.degrees(GIMBAL_LIMIT))

ServoAngles = namedtuple("ServoAngles", "yaw_deg pitch_deg saturated")


def servo_map(cmd: ThrusterCommand) -> ServoAngles:
    """Servo angle pair for a thruster command.

    A deflection d maps to SERVO_CENTER_DEG + degrees(d), clamped to the
    center +- degrees(GIMBAL_LIMIT). A clamp sets the saturated flag;
    nothing is clamped silently.
    """
    lo, hi = _SERVO_RANGE_DEG
    yaw_req = SERVO_CENTER_DEG + math.degrees(cmd.yaw_deflection)
    pitch_req = SERVO_CENTER_DEG + math.degrees(cmd.pitch_deflection)
    yaw, pitch = min(max(yaw_req, lo), hi), min(max(pitch_req, lo), hi)
    return ServoAngles(yaw_deg=yaw, pitch_deg=pitch, saturated=yaw != yaw_req or pitch != pitch_req)


# Open-loop values that cannot be set together: the script wins, throttle replaces thrust.
OPEN_LOOP_CONFLICTS = (
    ("thrust", "throttle"), ("script", "thrust"), ("script", "throttle"),
    ("script", "delta_y"), ("script", "delta_p"),
)


@dataclass(frozen=True)
class OpenLoopCommand:
    """Constant command, or a (t, thrust, delta_y, delta_p) script with ZOH."""

    thrust: float = 0.0
    throttle: float | None = None
    delta_y: float = 0.0
    delta_p: float = 0.0
    script: np.ndarray | None = None  # rows of (t, thrust, delta_y, delta_p)

    def __post_init__(self):
        script = None if self.script is None else np.asarray(self.script, dtype=float)
        object.__setattr__(self, "script", script)
        require_finite(self)
        given = {"thrust": self.thrust != 0.0, "throttle": self.throttle is not None,
                 "delta_y": self.delta_y != 0.0, "delta_p": self.delta_p != 0.0,
                 "script": self.script is not None}
        for a, b in OPEN_LOOP_CONFLICTS:
            if given[a] and given[b]:
                raise ValueError(f"{a} and {b} cannot both be set")
        if script is not None and (script.shape[1:] != (4,) or not len(script)):
            raise ValueError(f"script needs rows of t, thrust, delta_y, delta_p, got shape {script.shape}")
        rows = [(None, self.thrust, self.delta_y, self.delta_p)] if script is None else script.tolist()
        for t, thrust, dy, dp in rows:
            where = "" if t is None else f"script row at t={t!r}: "
            if thrust < 0.0:
                raise ValueError(f"{where}thrust must be non-negative, got {thrust}")
            for name, value in (("delta_y", dy), ("delta_p", dp)):
                if abs(value) > GIMBAL_LIMIT + 1e-12:  # as ThrusterCommand allows
                    raise ValueError(f"{where}|{name}| must not exceed {GIMBAL_LIMIT} rad, got {value}")
        lo, hi = THROTTLE_MAP.valid_range
        if self.throttle is not None and not lo <= self.throttle <= hi:
            raise ValueError(f"throttle must lie in [{lo}, {hi}], got {self.throttle}")

    def command_at(self, t: float) -> ThrusterCommand:
        if self.script is not None:
            idx = int(np.searchsorted(self.script[:, 0], t, side="right") - 1)
            row = self.script[max(idx, 0)]
            return ThrusterCommand(thrust=row[1], yaw_deflection=row[2], pitch_deflection=row[3])
        thrust = self.thrust if self.throttle is None else throttle_to_thrust(THROTTLE_MAP, self.throttle)
        return ThrusterCommand(thrust=thrust, yaw_deflection=self.delta_y, pitch_deflection=self.delta_p)


@dataclass(frozen=True)
class InnerLoopConfig:
    """Regulation about a level trim with the certified inner-loop gains."""

    trim_speed: float
    trim_thrust: float
    k_u: float
    k_w: float = 0.0
    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self):
        require_finite(self)


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
        require_finite(self)
        if self.t_max <= 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")


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
        if self.model not in ("full", "planar"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.controller not in ("open_loop", "inner_loop", "smc"):
            raise ValueError(f"unknown controller {self.controller!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite, got {self.duration}")
        if self.duration < self.dt:
            raise ValueError("duration must be at least one step")
        if not math.isclose(round(self.duration / self.dt) * self.dt, self.duration, rel_tol=1e-9):
            raise ValueError(f"duration {self.duration} s is not a whole number of dt={self.dt} s steps")
        if not (math.isfinite(self.gimbal_noise) and self.gimbal_noise >= 0.0):
            raise ValueError(f"gimbal_noise must be finite and non-negative, got {self.gimbal_noise}")
        if self.controller == "inner_loop" and self.inner_loop is None:
            raise ValueError("inner_loop controller requires an [inner_loop] section")
        if self.controller == "smc" and self.smc is None:
            raise ValueError("smc controller requires an [smc] section")


class SimRecord(namedtuple("SimRecord", CSV_COLUMNS)):
    """One sample of a run, which is one CSV row: its fields are CSV_COLUMNS.

    ``rec[1:13]`` is the state. ``s_*``/``lyap_*`` are None outside SMC runs;
    ``flags`` is a sorted tuple of flag names.
    """

    __slots__ = ()

    @property
    def s(self) -> np.ndarray | None:
        """Sliding variable (s_x, s_y, s_psi), or None outside SMC runs."""
        return None if self.s_x is None else np.array((self.s_x, self.s_y, self.s_psi))


@dataclass(frozen=True)
class SimResult:
    records: list
    summary: dict

    def states(self) -> np.ndarray:
        return np.array([rec[1:13] for rec in self.records])


# What the run loop integrates: derivative(y, u) from y0 (components named
# by labels), driven by control(t, y) -> (12 recorded state floats, command,
# integrator input u, flags, (s_x, s_y, s_psi, lyap_v, lyap_vdot)), the last
# all None outside SMC.
Plant = namedtuple("Plant", "derivative y0 labels control")


def _rigid_body_plant(sc: Scenario) -> Plant:
    """Full or planar field; open-loop or inner-loop command with seeded gimbal noise."""
    deriv = full_derivatives if sc.model == "full" else planar_derivatives
    rng = np.random.default_rng(sc.seed)
    il = sc.inner_loop

    def control(t, y):
        u, v, w, p, q, r, x, y_pos, h, phi, theta, psi = y.tolist()
        state = (u, v, w, p, q, r, x, y_pos, h, wrap_angle(phi), wrap_angle(theta), wrap_angle(psi))
        if sc.controller == "open_loop":
            base = sc.open_loop.command_at(t)
            thrust, dy, dp = base.thrust, base.yaw_deflection, base.pitch_deflection
        else:
            thrust = il.trim_thrust - il.k_u * (u - il.trim_speed)
            dy, dp = -il.k1 * v - il.k2 * r, il.k_w * w
        if sc.gimbal_noise > 0.0:
            dy = dy + rng.uniform(-sc.gimbal_noise, sc.gimbal_noise)
        # Clamp to the actuator limits and flag it.
        limited = (max(thrust, 0.0), *(min(max(d, -GIMBAL_LIMIT), GIMBAL_LIMIT) for d in (dy, dp)))
        cmd = ThrusterCommand(*limited)
        return state, cmd, cmd, {"saturation"} if limited != (thrust, dy, dp) else set(), (None,) * 5

    return Plant(lambda vec, cmd: deriv(sc.params, vec, cmd), sc.initial.as_array(), STATE_LABELS, control)


def _pose_plant(sc: Scenario) -> Plant:
    """SMC on the pose state (x, y, psi, x_dot, y_dot, psi_dot)."""
    cfg = sc.smc
    model = SmcModel.from_components(
        mass=sc.params.mass, inertia_z=sc.params.inertia_z,
        added_mass_x=cfg.added_mass_x, added_mass_y=cfg.added_mass_y,
        added_inertia_z=cfg.added_inertia_z, cg_x=cfg.cg_x, cg_y=cfg.cg_y,
        aero_matrix=np.diag([0.0, 0.0, -sc.params.yaw_damping]),
    )
    gains = cfg.gains
    init = sc.initial
    psi0 = init.attitude.psi
    c0, s0 = math.cos(psi0), math.sin(psi0)
    # eta_dot = C_bg(psi)^T (u, v, r)
    y0 = np.array([init.x, init.y, psi0, c0 * init.u - s0 * init.v, s0 * init.u + c0 * init.v, init.r])

    def derivative(vec, u_forces):
        eta_dot = vec[3:6].tolist()
        return (*eta_dot, *pose_acceleration(model, u_forces, eta_dot, vec[2]))

    def control(t, y):
        x, y_pos, psi, x_dot, y_dot, psi_dot = y.tolist()
        ref_pose, ref_rate = cfg.reference.sample(t)
        err = TrackingError.from_pose((x, y_pos, psi), (x_dot, y_dot, psi_dot), ref_pose, ref_rate)
        s = sliding_surface(gains, err)
        v, v_dot = lyapunov_monitor(gains, s)
        u_forces = smc_control(model, gains, err, (x_dot, y_dot, psi_dot), psi)
        cmd, residual = allocate_actuation(u_forces, t_max=cfg.t_max, mount_arm_x=sc.params.mount_x)
        flags = {"saturation"} if max(map(abs, residual)) > 1e-9 else set()
        c, sn = math.cos(psi), math.sin(psi)
        state = (c * x_dot + sn * y_dot, -sn * x_dot + c * y_dot, 0.0, 0.0, 0.0, psi_dot,
                 x, y_pos, init.h, 0.0, 0.0, wrap_angle(psi))
        return state, cmd, u_forces, flags, (*s.tolist(), sum(v), sum(v_dot))

    return Plant(derivative, y0, ("x", "y", "psi", "x_dot", "y_dot", "psi_dot"), control)


def run_scenario(sc: Scenario) -> SimResult:
    """Run a scenario to completion and, if paths are set, write its outputs."""
    plant = _pose_plant(sc) if sc.controller == "smc" else _rigid_body_plant(sc)
    n_steps = int(round(sc.duration / sc.dt))
    y = plant.y0
    records = []
    for step in range(n_steps + 1):
        t = step * sc.dt
        state, cmd, u, flags, internals = plant.control(t, y)
        servo = servo_map(cmd)
        if servo.saturated:
            flags.add("saturation")
        if state[8] < 0.0:  # h
            flags.add("ground")
        records.append(SimRecord(t, *state, cmd.thrust, cmd.yaw_deflection, cmd.pitch_deflection,
                                 servo.yaw_deg, servo.pitch_deg, *internals, tuple(sorted(flags))))
        if step == n_steps:
            break
        try:
            y = integrate_step(plant.derivative, y, u, sc.dt, plant.labels)
        except Exception as exc:
            raise ScenarioError(f"step {step} (t={t:.6f} s): {exc}") from exc
    result = SimResult(records=records, summary=_summarize(sc, records))
    if sc.csv_path:
        write_records_csv(result.records, sc.csv_path)
    if sc.summary_path:
        Path(sc.summary_path).write_text(format_summary(result.summary), encoding="utf-8")
    return result


def _summarize(sc: Scenario, records) -> dict:
    states = np.array([rec[1:13] for rec in records])
    speeds = np.linalg.norm(states[:, 0:3], axis=1)
    tail = max(1, len(records) // 10)
    final = records[-1]
    summary = {
        "model": sc.model,
        "controller": sc.controller,
        "dt": sc.dt,
        "duration": sc.duration,
        "steps": len(records) - 1,
        "seed": sc.seed,
        "max_speed": float(np.max(speeds)),
        "steady_speed": float(np.mean(speeds[-tail:])),
        "speed_drift": float(abs(speeds[-1] - speeds[-tail])),
        "final_u": final.u,
        "final_x": final.x,
        "final_y": final.y,
        "final_h": final.h,
        "final_psi": final.psi,
        "saturation_steps": sum(1 for rec in records if "saturation" in rec.flags),
        "ground_steps": sum(1 for rec in records if "ground" in rec.flags),
    }
    if sc.controller == "smc":
        s_all = np.array([(rec.s_x, rec.s_y, rec.s_psi) for rec in records])
        s_inf = np.max(np.abs(s_all), axis=1)
        s0 = s_all[0]
        bound = max(reaching_time_bound(sc.smc.gains, float(ch)) for ch in s0)
        below = np.flatnonzero(s_inf < 1e-3)
        summary.update(
            s0_inf=float(np.max(np.abs(s0))),
            reaching_bound=float(bound),
            reaching_time=float(records[below[0]].t) if below.size else float("inf"),
            s_final_max=float(np.max(s_inf[-tail:])),
            vdot_max=float(max(rec.lyap_vdot for rec in records)),
            s_energy_final=records[-1].lyap_v,
        )
    return summary


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_records_csv(records, path) -> None:
    """Write SimRecords as CSV: one row per record, columns in CSV_COLUMNS order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([*map(_fmt, rec[:-1]), ";".join(rec.flags)])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def format_summary(summary: dict) -> str:
    """key=value lines, one per summary entry, stable order."""
    return "".join(f"{key}={_fmt(val)}\n" for key, val in summary.items())


# ---------------------------------------------------------------------------
# Scenario config files
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """Config converter: a finite float (nan and inf are input errors)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _path(text: str) -> Path:
    if not text:
        raise ValueError("empty path")
    return Path(text)


# Everything a scenario file may contain: section -> key -> converter.
# A converter returning a Path marks a file name, resolved by read_config.
SCENARIO_SCHEMA = {
    "scenario": {
        "model": str, "controller": str, "duration": finite_float, "dt": finite_float,
        "seed": int, "gimbal_noise": finite_float,
    },
    "params": dict.fromkeys((f.name for f in fields(AirshipParams)), finite_float),
    "initial": dict.fromkeys(STATE_LABELS, finite_float),
    "open_loop": {
        "thrust": finite_float, "throttle": finite_float, "delta_y": finite_float,
        "delta_p": finite_float, "script": _path,
    },
    "inner_loop": dict.fromkeys((f.name for f in fields(InnerLoopConfig)), finite_float),
    "smc": {
        **dict.fromkeys(
            ("c1", "c2", "epsilon", "k", "boundary_layer", "t_max", "added_mass_x",
             "added_mass_y", "added_inertia_z", "cg_x", "cg_y"),
            finite_float,
        ),
        "reference": _path,
    },
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
    # No default section: a [DEFAULT] header is an unknown section like any other.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    parser.read_string(text)
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
    "smc": [f.name for f in fields(SmcGains) if f.default is MISSING] + ["reference"],
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
    initial = config.get("initial", {})
    attitude = AttitudeAngles(**{k: initial.pop(k) for k in ("phi", "theta", "psi") if k in initial})

    open_loop = config.get("open_loop", {})
    # Keys, not values: a pair is an error even when one key holds its default.
    for a, b in OPEN_LOOP_CONFLICTS:
        if a in open_loop and b in open_loop:
            raise ValueError(f"{path}: [open_loop] {a} and {b} cannot both be set")

    # These Scenario fields are named after the sections they are built from.
    makers = {"params": AirshipParams, "open_loop": _open_loop,
              "inner_loop": InnerLoopConfig, "smc": _smc_config}
    built = {s: _section(path, s, make, config[s]) for s, make in makers.items() if s in config}
    output = {key: str(value) for key, value in config.get("output", {}).items()}
    return _section(path, "scenario", Scenario, dict(
        initial=BodyState(attitude=attitude, **initial),
        csv_path=output.get("csv"),
        summary_path=output.get("summary"),
        **built,
        **config.get("scenario", {}),
    ))
