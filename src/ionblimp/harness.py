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

Runs are deterministic: a fixed scenario file and seed reproduce output
files byte for byte. Scenario configs are plain-text INI-style files whose
first line must read ``# blimpsim-config v1``; ``read_config`` checks every
section and key against a schema table at load time. Time series go to CSV
with a fixed column order and summaries to ``key=value`` text.
"""

import configparser
import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dynamics import (
    GIMBAL_LIMIT,
    AirshipParams,
    BodyState,
    ThrusterCommand,
    full_derivatives,
    planar_derivatives,
)
from .frames import AttitudeAngles
from .smc import (
    ReferenceTrajectory,
    SmcGains,
    SmcModel,
    TrackingError,
    allocate_actuation,
    lyapunov_monitor,
    pose_acceleration,
    reaching_time_bound,
    sliding_surface,
    smc_control,
)
from .thruster import THROTTLE_MAP, throttle_to_thrust

CONFIG_HEADER = "# blimpsim-config v1"

STATE_LABELS = ("u", "v", "w", "p", "q", "r", "x", "y", "h", "phi", "theta", "psi")

CSV_COLUMNS = (
    "t", "u", "v", "w", "p", "q", "r", "x", "y", "h", "phi", "theta", "psi",
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


@dataclass(frozen=True)
class ServoCommandMap:
    """Mapping from gimbal deflection (rad, 0 = forward) to servo degrees."""

    center_deg: float = 90.0
    min_deg: float = 0.0
    max_deg: float = 180.0
    slew_rate_deg_s: float | None = None

    def __post_init__(self):
        if not (self.min_deg <= self.center_deg <= self.max_deg):
            raise ValueError("center_deg must lie within [min_deg, max_deg]")


ServoAngles = namedtuple("ServoAngles", "yaw_deg pitch_deg saturated")


def servo_map(
    cmd: ThrusterCommand,
    smap: ServoCommandMap,
    previous: ServoAngles | None = None,
    dt: float | None = None,
) -> ServoAngles:
    """Servo angle pair for a thruster command.

    Zero deflection maps to the center position (90 deg by default); the
    output is clamped to the servo range and, when a slew rate and the
    previous output are given, rate-limited. Any clamping or rate limiting
    sets the saturated flag; nothing is clamped silently.
    """
    saturated = False
    angles = []
    prev_vals = (previous.yaw_deg, previous.pitch_deg) if previous is not None else (None, None)
    for deflection, prev in zip((cmd.yaw_deflection, cmd.pitch_deflection), prev_vals):
        deg = smap.center_deg + np.degrees(deflection)
        clamped = float(np.clip(deg, smap.min_deg, smap.max_deg))
        if clamped != deg:
            saturated = True
        if smap.slew_rate_deg_s is not None and prev is not None and dt is not None:
            max_step = smap.slew_rate_deg_s * dt
            limited = float(np.clip(clamped, prev - max_step, prev + max_step))
            if limited != clamped:
                saturated = True
            clamped = limited
        angles.append(clamped)
    return ServoAngles(yaw_deg=angles[0], pitch_deg=angles[1], saturated=saturated)


@dataclass(frozen=True)
class OpenLoopCommand:
    """Constant command, or a (t, thrust, delta_y, delta_p) script with ZOH."""

    thrust: float = 0.0
    throttle: float | None = None
    delta_y: float = 0.0
    delta_p: float = 0.0
    script: np.ndarray | None = None  # rows of (t, thrust, delta_y, delta_p)

    def command_at(self, t: float) -> ThrusterCommand:
        if self.script is not None:
            idx = int(np.searchsorted(self.script[:, 0], t, side="right") - 1)
            idx = max(idx, 0)
            row = self.script[idx]
            return ThrusterCommand(thrust=row[1], yaw_deflection=row[2], pitch_deflection=row[3])
        thrust = self.thrust
        if self.throttle is not None:
            thrust = throttle_to_thrust(THROTTLE_MAP, self.throttle)
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
    servo: ServoCommandMap = field(default_factory=ServoCommandMap)
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


@dataclass(frozen=True)
class SimRecord:
    """One sample of a run: state, command, actuator view, controller internals."""

    t: float
    state: BodyState
    command: ThrusterCommand
    servo: ServoAngles
    s: np.ndarray | None = None
    lyap_v: float | None = None
    lyap_vdot: float | None = None
    flags: tuple = ()


@dataclass(frozen=True)
class SimResult:
    records: list
    summary: dict

    def states(self) -> np.ndarray:
        return np.array([rec.state.as_array() for rec in self.records])

    def times(self) -> np.ndarray:
        return np.array([rec.t for rec in self.records])


# What the run loop integrates: derivative(y, u) from y0 (components named
# by labels), driven by control(t, y) -> (record state, command, integrator
# input u, flags, (s, lyap_v, lyap_vdot)), the last all None outside SMC.
Plant = namedtuple("Plant", "derivative y0 labels control")


def _rigid_body_plant(sc: Scenario) -> Plant:
    """Full or planar field; open-loop or inner-loop command with seeded gimbal noise."""
    deriv = full_derivatives if sc.model == "full" else planar_derivatives
    rng = np.random.default_rng(sc.seed)
    il = sc.inner_loop

    def control(t, y):
        state = BodyState.from_array(y)
        if sc.controller == "open_loop":
            base = sc.open_loop.command_at(t)
            thrust, dy, dp = base.thrust, base.yaw_deflection, base.pitch_deflection
        else:
            thrust = il.trim_thrust - il.k_u * (state.u - il.trim_speed)
            dy, dp = -il.k1 * state.v - il.k2 * state.r, il.k_w * state.w
        if sc.gimbal_noise > 0.0:
            dy = dy + rng.uniform(-sc.gimbal_noise, sc.gimbal_noise)
        # Clamp to the actuator limits and flag it.
        cmd = ThrusterCommand(
            thrust=max(thrust, 0.0),
            yaw_deflection=float(np.clip(dy, -GIMBAL_LIMIT, GIMBAL_LIMIT)),
            pitch_deflection=float(np.clip(dp, -GIMBAL_LIMIT, GIMBAL_LIMIT)),
        )
        clamped = (cmd.thrust, cmd.yaw_deflection, cmd.pitch_deflection) != (thrust, dy, dp)
        return state, cmd, cmd, {"saturation"} if clamped else set(), (None, None, None)

    return Plant(lambda vec, cmd: deriv(sc.params, vec, cmd), sc.initial.as_array(), STATE_LABELS, control)


def _planar_rotation(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _planar_rotation_rate(psi: float, psi_dot: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return psi_dot * np.array([[-s, c, 0.0], [-c, -s, 0.0], [0.0, 0.0, 0.0]])


def _pose_plant(sc: Scenario) -> Plant:
    """SMC on the pose state (x, y, psi, x_dot, y_dot, psi_dot)."""
    cfg = sc.smc
    model = SmcModel.from_components(
        mass=sc.params.mass,
        inertia_z=sc.params.inertia_z,
        added_mass_x=cfg.added_mass_x,
        added_mass_y=cfg.added_mass_y,
        added_inertia_z=cfg.added_inertia_z,
        cg_x=cfg.cg_x,
        cg_y=cfg.cg_y,
        aero_matrix=np.diag([0.0, 0.0, -sc.params.yaw_damping]),
    )
    gains = cfg.gains
    init = sc.initial
    c0 = _planar_rotation(init.attitude.psi)
    eta_dot0 = c0.T @ np.array([init.u, init.v, init.r])
    y0 = np.array([init.x, init.y, init.attitude.psi, eta_dot0[0], eta_dot0[1], eta_dot0[2]])

    def derivative(vec, u_forces):
        c_bg = _planar_rotation(vec[2])
        c_bg_dot = _planar_rotation_rate(vec[2], vec[5])
        eta_ddot = pose_acceleration(model, u_forces, vec[3:6], c_bg, c_bg_dot)
        return np.concatenate([vec[3:6], eta_ddot])

    def control(t, y):
        ref_pose, ref_rate = cfg.reference.sample(t)
        err = TrackingError.from_pose(y[0:3], y[3:6], ref_pose, ref_rate)
        s = sliding_surface(gains, err)
        v, v_dot = lyapunov_monitor(gains, s)
        c_bg = _planar_rotation(y[2])
        c_bg_dot = _planar_rotation_rate(y[2], y[5])
        u_forces = smc_control(model, gains, y[0:3], y[3:6], err, c_bg, c_bg_dot)
        cmd, residual = allocate_actuation(
            u_forces, t_max=cfg.t_max, mount_arm_x=sc.params.mount_x
        )
        flags = {"saturation"} if np.max(np.abs(residual)) > 1e-9 else set()
        body_vel = c_bg @ y[3:6]
        state = BodyState(
            u=body_vel[0], v=body_vel[1], w=0.0, r=y[5],
            x=y[0], y=y[1], h=init.h,
            attitude=AttitudeAngles(psi=y[2]),
        )
        return state, cmd, u_forces, flags, (s.copy(), float(np.sum(v)), float(np.sum(v_dot)))

    return Plant(derivative, y0, ("x", "y", "psi", "x_dot", "y_dot", "psi_dot"), control)


def run_scenario(sc: Scenario) -> SimResult:
    """Run a scenario to completion and, if paths are set, write its outputs."""
    plant = _pose_plant(sc) if sc.controller == "smc" else _rigid_body_plant(sc)
    n_steps = int(round(sc.duration / sc.dt))
    y = plant.y0
    records = []
    prev_servo = None
    for step in range(n_steps + 1):
        t = step * sc.dt
        state, cmd, u, flags, internals = plant.control(t, y)
        servo = servo_map(cmd, sc.servo, previous=prev_servo, dt=sc.dt)
        if servo.saturated:
            flags.add("saturation")
        if state.h < 0.0:
            flags.add("ground")
        records.append(SimRecord(t, state, cmd, servo, *internals, flags=tuple(sorted(flags))))
        prev_servo = servo
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
    states = np.array([rec.state.as_array() for rec in records])
    speeds = np.linalg.norm(states[:, 0:3], axis=1)
    tail = max(1, len(records) // 10)
    final = records[-1].state
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
        "final_psi": final.attitude.psi,
        "saturation_steps": sum(1 for rec in records if "saturation" in rec.flags),
        "ground_steps": sum(1 for rec in records if "ground" in rec.flags),
    }
    if sc.controller == "smc":
        s_inf = np.array([np.max(np.abs(rec.s)) for rec in records])
        s0 = records[0].s
        bound = max(reaching_time_bound(sc.smc.gains, float(ch)) for ch in s0)
        below = np.flatnonzero(s_inf < 1e-3)
        summary.update(
            {
                "s0_inf": float(np.max(np.abs(s0))),
                "reaching_bound": float(bound),
                "reaching_time": float(records[below[0]].t) if below.size else float("inf"),
                "s_final_max": float(np.max(s_inf[-tail:])),
                "vdot_max": float(max(rec.lyap_vdot for rec in records)),
                "s_energy_final": records[-1].lyap_v,
            }
        )
    return summary


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_records_csv(records, path) -> None:
    """Write SimRecords as CSV with the fixed CSV_COLUMNS order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        st = rec.state
        s_vals = (None, None, None) if rec.s is None else tuple(float(x) for x in rec.s)
        row = [
            rec.t, st.u, st.v, st.w, st.p, st.q, st.r, st.x, st.y, st.h,
            st.attitude.phi, st.attitude.theta, st.attitude.psi,
            rec.command.thrust, rec.command.yaw_deflection, rec.command.pitch_deflection,
            rec.servo.yaw_deg, rec.servo.pitch_deg,
            s_vals[0], s_vals[1], s_vals[2], rec.lyap_v, rec.lyap_vdot,
            ";".join(rec.flags),
        ]
        writer.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])
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
        raise ValueError(
            f"{path}: first line must be {CONFIG_HEADER!r}, got {first_line!r}"
        )
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


def load_scenario(path) -> Scenario:
    """Parse a versioned scenario config file into a Scenario (see read_config)."""
    config = read_config(path, SCENARIO_SCHEMA)
    initial = config.get("initial", {})
    attitude = AttitudeAngles(**{k: initial.pop(k) for k in ("phi", "theta", "psi") if k in initial})

    open_loop = config.get("open_loop", {})
    if "script" in open_loop:
        open_loop["script"] = np.loadtxt(open_loop["script"], comments="#", ndmin=2)
        if open_loop["script"].shape[1] != 4:
            raise ValueError("open-loop script needs columns t, thrust, delta_y, delta_p")

    inner = config.get("inner_loop")
    smc_cfg = config.get("smc")
    if smc_cfg is not None:
        if "reference" not in smc_cfg:
            raise ValueError("[smc] section requires a reference trajectory file")
        gains = SmcGains(**{f.name: smc_cfg.pop(f.name) for f in fields(SmcGains) if f.name in smc_cfg})
        reference = ReferenceTrajectory.from_file(smc_cfg.pop("reference"))
        smc_cfg = SmcScenarioConfig(gains=gains, reference=reference, **smc_cfg)

    output = {key: str(value) for key, value in config.get("output", {}).items()}
    return Scenario(
        params=AirshipParams(**config.get("params", {})),
        initial=BodyState(attitude=attitude, **initial),
        open_loop=OpenLoopCommand(**open_loop),
        inner_loop=None if inner is None else InnerLoopConfig(**inner),
        smc=smc_cfg,
        csv_path=output.get("csv"),
        summary_path=output.get("summary"),
        **config.get("scenario", {}),
    )
