"""Fixed-step scenario engine, config ingestion and time-series output.

``run_scenario`` steps every scenario through one loop over a plant: a
derivative field, stepped by RK4 over Python floats (``integrate_step``), its
initial state as a tuple, and a controller giving the recorded state, the
thruster command, the integrator input ``u`` and whether the actuators
saturated. In both plants ``u`` is a generalized force held over the step: the
rigid-body plant's is the command's ``thruster_wrench``, computed once per
held command (per row without noise, per step otherwise), and the pose plant's
the SMC force demand. The recorded state is laid out as ``BodyState``'s fields
(``STATE_LABELS``). The RK4 step runs one unrolled kernel per state length (12
or 6), compiled from a source template the first time that length is stepped.
A step that leaves a non-finite state fails naming the components, the input
``u`` held over it and the last finite state.
The ``CONTROLLERS`` table maps each controller name to the function that
builds its run's plant, once, before the loop:

* ``open_loop`` and ``inner_loop``: ``_rigid_body_plant``, model ``full``
  or ``planar``, under the command law ``demand(t, y)``: the scripted or
  constant command, or the trim feedback. Seeded yaw-gimbal noise and the
  actuator clamp act on either law; without noise a script row is held.
* ``smc``: ``_pose_plant``, the lateral pose model the tracker is designed
  for (position/heading plus their rates). The single-thruster allocation
  is evaluated and recorded at every step (command, saturation, residual)
  so under-actuation is visible, but it does not feed back into this
  idealized loop.

Every step's command is recorded with its servo angles from one fixed map
(``servo_map``): a 90 deg center and travel equal to the gimbal limit, so a
valid ``ThrusterCommand`` is in the servos' range by construction.

Runs are deterministic: a fixed scenario file and seed reproduce output files
byte for byte. This module reads every input file, and writes every output
file and every key=value report and plain table the CLI prints. Scenario
configs, and the ``[params]``/``[trim]`` files of ``load_params``, are
plain-text INI-style files whose first line must read
``# blimpsim-config v1``; ``read_config`` checks every section and key against
a schema table at load time. ``read_table`` reads the open-loop script and SMC
reference tables in Python, as ``np.loadtxt`` reads them, and ``format_table``
writes them. An input that cannot be read fails at load naming the file, as
does an output path that is a directory, in a missing one, or names an input
or the other output. A run's records are its CSV rows: each ``SimRecord`` is a
named tuple whose fields are ``CSV_COLUMNS``, so the column order is the
record layout, defined once. ``format_summary`` writes ``key=value`` text: a
run's summary and the ``linearize`` and ``certify-gains`` reports, whose
design lines are the ``[inner_loop]`` keys ``read_config`` reads. A run
imports numpy only for a non-diagonal M or a throttle, and ``thruster`` only
for a throttle. It imports ``smc`` only for an ``[smc]`` section,
``inner_loop`` only for an ``[inner_loop]`` section, and never ``frames``.
"""

from __future__ import annotations

import bisect
import configparser
import functools
import math
from collections import namedtuple
from pathlib import Path

from .dynamics import (
    GIMBAL_LIMIT,
    PLANAR_TOL,
    STATE_LABELS,
    AirshipParams,
    BodyState,
    Record,
    ThrusterCommand,
    check_sign,
    full_derivatives,
    planar_derivatives,
    store_floats,
    table_shape,
    thruster_wrench,
    wrap_angle,
)
from .pcg64 import uniform_stream

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

    The step runs the unrolled kernel compiled for the state's length (``_rk4_kernel``, generated from
    ``_RK4_TEMPLATE``). Each stage input is a list computed per component in numpy's order, so the step is bit
    for bit the array form. A stage output of another length raises ValueError before the next stage is called;
    a non-finite result, NonFiniteState.
    """
    if not 0.0 < dt < math.inf:  # nan fails both comparisons
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    result = _rk4_kernel(len(state))(derivative_fn, state, u, dt)
    if not all(map(math.isfinite, result)):
        names = ", ".join(labels[i] if labels and i < len(labels) else f"[{i}]"
                          for i, value in enumerate(result) if not math.isfinite(value))
        raise NonFiniteState(f"non-finite state component(s): {names}")
    return result


def _wrong_length(k, n: int):
    raise ValueError(f"derivative has {len(k)} components, the state has {n}")


# One RK4 step with the state y and the stages a, b, c, d unpacked into locals, each {placeholder} a line of n
# components. Written out, a component costs no zip, comprehension or call; for the pose model's 6-float state
# those cost as much as its field. The length is checked before each unpacking. The source is generated because
# Python has no loop unrolling; only n and fixed names enter it, as in namedtuple and dynamics.Record.
_RK4_TEMPLATE = """\
def rk4(f, state, u, dt):
    half, h6 = 0.5 * dt, dt / 6.0
    [{y}] = state
    k = f(state, u)
    if len(k) != {n}: _wrong_length(k, {n})
    [{a}] = k
    k = f([{y_half_a}], u)
    if len(k) != {n}: _wrong_length(k, {n})
    [{b}] = k
    k = f([{y_half_b}], u)
    if len(k) != {n}: _wrong_length(k, {n})
    [{c}] = k
    k = f([{y_dt_c}], u)
    if len(k) != {n}: _wrong_length(k, {n})
    [{d}] = k
    return ({result})
"""


@functools.cache
def _rk4_kernel(n: int):
    """The RK4 step for an n-component state, compiled from _RK4_TEMPLATE once per n."""
    def row(component):  # component i of each line, for every i
        return "".join(component.format(i=i) + ", " for i in range(n))
    source = _RK4_TEMPLATE.format(
        n=n, y=row("y{i}"), a=row("a{i}"), b=row("b{i}"), c=row("c{i}"), d=row("d{i}"),
        y_half_a=row("y{i} + half * a{i}"), y_half_b=row("y{i} + half * b{i}"), y_dt_c=row("y{i} + dt * c{i}"),
        result=row("y{i} + h6 * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})"))
    namespace = {"_wrong_length": _wrong_length}
    exec(compile(source, f"<rk4 kernel, n={n}>", "exec"), namespace)
    return namespace["rk4"]


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


class OpenLoopCommand(Record):
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


class SmcScenarioConfig(Record):
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


class Scenario(Record):
    params: AirshipParams = AirshipParams()
    initial: BodyState = BodyState()
    model: str = "planar"
    controller: str = "open_loop"
    duration: float = 10.0
    dt: float = 0.001
    seed: int = 0
    gimbal_noise: float = 0.0  # rad, uniform zero-mean yaw-command noise
    open_loop: OpenLoopCommand = OpenLoopCommand()
    inner_loop: InnerLoopConfig | None = None
    smc: SmcScenarioConfig | None = None
    csv_path: str | None = None
    summary_path: str | None = None

    def __post_init__(self):
        store_floats(self, ("duration", "dt", "gimbal_noise"), positive=("dt", "duration"),
                     non_negative=("gimbal_noise",))
        if self.model not in ("full", "planar"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if not self.duration / self.dt <= MAX_STEPS:  # a quotient that overflows to inf fails too
            raise ValueError(f"duration / dt must be at most {MAX_STEPS} steps, got duration={self.duration!r}, "
                             f"dt={self.dt!r}")
        if not math.isclose(round(self.duration / self.dt) * self.dt, self.duration, rel_tol=1e-9):
            raise ValueError(f"duration {self.duration} s is not a whole number of dt={self.dt} s steps")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not math.isfinite(2.0 * self.gimbal_noise):  # each draw's span; uniform_stream checks none
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


class SimResult(Record):
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


def _rigid_body_plant(sc: Scenario, demand, held=None) -> Plant:
    """Full or planar field under demand(t, y) -> (thrust, delta_y, delta_p), with seeded gimbal noise and the
    actuator clamp; or, given held (each command's thrust wrench by id), under the command demand(t) as it is."""
    deriv = full_derivatives if sc.model == "full" else planar_derivatives
    noise = uniform_stream(sc.seed) if sc.gimbal_noise > 0.0 else None  # a zero-width draw would turn -0.0 into 0.0

    def control(t, y):
        state = (*y[:9], wrap_angle(y[9]), wrap_angle(y[10]), wrap_angle(y[11]))  # the angles wrapped
        if held is not None:  # a valid command: the clamp would change nothing, so it is held with its wrench
            cmd = demand(t)
            return state, cmd, held[id(cmd)], False, (None,) * 5
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
        return state, cmd, thruster_wrench(sc.params, cmd), limited != (thrust, dy, dp), (None,) * 5

    return Plant(functools.partial(deriv, sc.params), sc.initial._astuple(), STATE_LABELS, control)


def _open_loop_plant(sc: Scenario) -> Plant:
    """Open loop: the scripted or constant command at t. Without noise each row's command is held, its thrust
    wrench computed once, here; keyed by id, as ThrusterCommand(0.0) == ThrusterCommand(-0.0) but not their wrenches."""
    ol = sc.open_loop

    def demand(t, y):
        cmd = ol.command_at(t)
        return cmd.thrust, cmd.yaw_deflection, cmd.pitch_deflection

    if sc.gimbal_noise > 0.0:
        return _rigid_body_plant(sc, demand)
    return _rigid_body_plant(sc, ol.command_at, {id(cmd): thruster_wrench(sc.params, cmd) for cmd in ol._commands})


def _inner_loop_plant(sc: Scenario) -> Plant:
    """Inner loop: trim feedback, thrust on u, yaw deflection on (v, r), pitch deflection on w."""
    il = sc.inner_loop

    def demand(t, y):
        return (il.trim_thrust - il.k_u * (y[0] - il.trim_speed),
                -il.k1 * y[1] - il.k2 * y[5], il.k_w * y[2])

    return _rigid_body_plant(sc, demand)


def _pose_plant(sc: Scenario) -> Plant:
    """SMC on the pose state (x, y, psi, x_dot, y_dot, psi_dot)."""
    from .smc import (SmcModel, TrackingError, allocate_actuation, lyapunov_monitor, pose_acceleration,
                      sliding_surface, smc_control)
    cfg = sc.smc
    model = SmcModel.from_components(
        mass=sc.params.mass, inertia_z=sc.params.inertia_z,
        added_mass_x=cfg.added_mass_x, added_mass_y=cfg.added_mass_y,
        added_inertia_z=cfg.added_inertia_z, cg_x=cfg.cg_x, cg_y=cfg.cg_y,
        aero_matrix=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, -sc.params.yaw_damping)),
    )
    gains, reference, t_max, mount_x = cfg.gains, cfg.reference, cfg.t_max, sc.params.mount_x
    init = sc.initial
    h = init.h
    c0, s0 = math.cos(init.psi), math.sin(init.psi)
    # eta_dot = C_bg(psi)^T (u, v, r)
    y0 = (init.x, init.y, init.psi, c0 * init.u - s0 * init.v, s0 * init.u + c0 * init.v, init.r)

    def derivative(vec, u_forces):
        eta_dot = vec[3:6]
        return (*eta_dot, *pose_acceleration(model, u_forces, eta_dot, vec[2]))

    def control(t, y):
        x, y_pos, psi, x_dot, y_dot, psi_dot = y
        ref_pose, ref_rate = reference.sample(t)
        err = TrackingError.from_pose((x, y_pos, psi), (x_dot, y_dot, psi_dot), ref_pose, ref_rate)
        s = sliding_surface(gains, err)
        v, v_dot = lyapunov_monitor(gains, s)
        u_forces = smc_control(model, gains, s, err.error_rate, (x_dot, y_dot, psi_dot), psi)
        cmd, (rx, ry, rn) = allocate_actuation(u_forces, t_max, mount_x)
        # Some |residual component| > 1e-9, as comparisons: they agree with abs on every float but nan, and
        # allocate_actuation refuses a non-finite demand, so no component is nan.
        saturated = not (-1e-9 <= rx <= 1e-9 and -1e-9 <= ry <= 1e-9 and -1e-9 <= rn <= 1e-9)
        c, sn = math.cos(psi), math.sin(psi)
        state = (c * x_dot + sn * y_dot, -sn * x_dot + c * y_dot, 0.0, 0.0, 0.0, psi_dot,
                 x, y_pos, h, 0.0, 0.0, wrap_angle(psi))
        # Summed left to right from 0.0, as sum() did before Python 3.12 compensated it.
        return state, cmd, u_forces, saturated, (*s, 0.0 + v[0] + v[1] + v[2], 0.0 + v_dot[0] + v_dot[1] + v_dot[2])

    return Plant(derivative, y0, ("x", "y", "psi", "x_dot", "y_dot", "psi_dot"), control)


# Each controller reads the config section named after it and no other
# controller's. Its entry builds the run's plant, once, from the scenario.
CONTROLLERS = {"open_loop": _open_loop_plant, "inner_loop": _inner_loop_plant, "smc": _pose_plant}


def run_scenario(sc: Scenario) -> SimResult:
    """Run a scenario to completion and, if paths are set, write its outputs."""
    plant = CONTROLLERS[sc.controller](sc)
    control, derivative, labels, dt = plant.control, plant.derivative, plant.labels, sc.dt
    n_steps = int(round(sc.duration / dt))
    y = plant.y0
    records = []
    append = records.append
    for step in range(n_steps + 1):
        t = step * dt
        try:  # one failure path: the controller's and the integrator's errors carry the step
            state, cmd, u, saturated, internals = control(t, y)
            if step < n_steps:
                y = integrate_step(derivative, y, u, dt, labels)
        except NonFiniteState as exc:  # the state blew up under the input held over it: name both
            held, last = ", ".join(map(repr, u)), ", ".join(map(repr, y))
            raise ScenarioError(f"step {step} (t={t:.6f} s): {exc}; input held over the step: ({held}); "
                                f"last finite state: ({last})") from exc
        except Exception as exc:
            raise ScenarioError(f"step {step} (t={t:.6f} s): {exc}") from exc
        flags = ("ground",) * (state[8] < 0.0) + ("saturation",) * saturated  # sorted
        append(SimRecord(t, *state, cmd.thrust, cmd.yaw_deflection, cmd.pitch_deflection,
                         *servo_map(cmd), *internals, flags))
    result = SimResult(records=records, summary=_summarize(sc, records))
    if sc.csv_path:
        write_records_csv(result.records, sc.csv_path)
    if sc.summary_path:
        Path(sc.summary_path).write_text(format_summary(result.summary), encoding="utf-8")
    return result


def _summarize(sc: Scenario, records) -> dict:
    # Each norm summed as np.linalg.norm(..., axis=1) sums it, so the other statistics keep numpy's bits;
    # steady_speed is the tail's correctly rounded sum (math.fsum) over its length.
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
        "steady_speed": math.fsum(speeds[-tail:]) / tail,
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
        from .smc import reaching_time_bound
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
    """key=value lines, one per entry in order, a float as its repr: a run's summary, and the ``linearize`` and
    ``certify-gains`` reports, whose first six lines ``read_config`` reads as an ``[inner_loop]`` section."""
    return "".join(f"{key}={repr(val) if isinstance(val, float) else val}\n" for key, val in summary.items())


# ---------------------------------------------------------------------------
# Scenario config files
# ---------------------------------------------------------------------------

def _path(text: str) -> Path:
    if not text:
        raise ValueError("empty path")
    return Path(text)


# The [inner_loop] keys are InnerLoopConfig's fields, and the [smc] keys SmcGains' fields, then
# SmcScenarioConfig's own, each in field order. They are written out so that loading a scenario imports
# inner_loop or smc only for its section. REQUIRED_KEYS below are the fields with no default.
_INNER_LOOP_KEYS = ("trim_speed", "trim_thrust", "k_u", "k_w", "k1", "k2")
_SMC_KEYS = ("c1", "c2", "epsilon", "k", "boundary_layer",
             "reference", "t_max", "added_mass_x", "added_mass_y", "added_inertia_z", "cg_x", "cg_y")

# Everything a scenario file may contain: section -> key -> converter.
# A converter returning a Path marks a file name, resolved by read_config.
# A float is checked once, as finite, by store_floats in the record its section builds.
SCENARIO_SCHEMA = {
    "scenario": {"model": str, "controller": str, "duration": float, "dt": float, "seed": int, "gimbal_noise": float},
    "params": dict.fromkeys(AirshipParams._fields, float),
    "initial": dict.fromkeys(STATE_LABELS, float),
    "open_loop": {"thrust": float, "throttle": float, "delta_y": float, "delta_p": float, "script": _path},
    "inner_loop": dict.fromkeys(_INNER_LOOP_KEYS, float),
    "smc": {key: _path if key == "reference" else float for key in _SMC_KEYS},
    "output": {"csv": _path, "summary": _path},
}


def read_config(path, schema: dict) -> dict:
    """Read a versioned config file as {section: {key: converted value}}.

    The first line must be CONFIG_HEADER. Every section and key must appear
    in ``schema``; an unknown one, or a value its converter rejects, raises
    ValueError naming it. Paths resolve against the file's own directory.
    """
    path = Path(path)
    text = _read_text(path)
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


def _read_text(path) -> str:
    """A UTF-8 file's text, read in text mode (LF, CRLF and CR each end a line); a failure is one ValueError that
    starts with the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror.lower()}") from None
    except UnicodeDecodeError as exc:  # read() decodes the whole file: the byte's line is one past the ends before it
        raise ValueError(f"{path}: line {len((exc.object[:exc.start] + b'.').splitlines())}: not UTF-8") from None


def read_table(path) -> tuple:
    """Rows of a plain-text numeric table as float tuples, read as ``np.loadtxt(path, comments="#", ndmin=2)`` reads
    them: ``#`` starts a comment, whitespace splits tokens, every row has one length and there is at least one row.
    float() parses a token as numpy does once it is ASCII without ``_``. A failure names the file and the line."""
    rows = []
    for number, line in enumerate(_read_text(path).split("\n"), 1):
        if not (tokens := line.split("#", 1)[0].split()):
            continue
        try:
            if odd := [token for token in tokens if not token.isascii() or "_" in token]:
                raise ValueError(f"could not convert string to float: {odd[0]!r}")
            rows.append(tuple(map(float, tokens)))
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{len(rows[-1])} values, where the rows above have {len(rows[0])}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return tuple(rows)


def _prefixed(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ValueError is prefixed with prefix, a config key or a file that it read."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def format_table(header: str, rows) -> str:
    """A table in read_table's plain grammar: a ``# header`` line, then each row's float reprs two spaces apart."""
    return "".join([f"# {header}\n", *("  ".join(repr(float(x)) for x in row) + "\n" for row in rows)])


# Keys a section must set when it is present: the fields with no default.
REQUIRED_KEYS = {
    "inner_loop": ["trim_speed", "trim_thrust", "k_u"],
    "smc": ["c1", "c2", "epsilon", "k", "reference"],
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
    return OpenLoopCommand(script=None if script is None else _prefixed("script", read_table, script), **values)


def _inner_loop_config(**values):
    from .inner_loop import InnerLoopConfig
    return InnerLoopConfig(**values)


def _smc_config(reference, **values) -> SmcScenarioConfig:
    from .smc import ReferenceTrajectory, SmcGains
    gains = SmcGains(**{n: values.pop(n) for n in SmcGains._fields if n in values})
    times, poses = zip(*((row[0], row[1:]) for row in _prefixed("reference", read_table, reference)))
    trajectory = _prefixed(f"reference: {reference}", ReferenceTrajectory, times, poses)
    return SmcScenarioConfig(gains=gains, reference=trajectory, **values)


def load_scenario(path, csv=None, summary=None) -> Scenario:
    """Parse a versioned scenario config file into a Scenario (see read_config); a csv or summary path given
    here (blimpsim's --csv and --summary) replaces the file's [output] key."""
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
              "inner_loop": _inner_loop_config, "smc": _smc_config}
    built = {s: _section(path, s, make, config[s]) for s, make in makers.items() if s in config}
    # Every output path given is checked, each named where it was given; a flag, given last, replaces the key.
    given = [(key, f"{path}: [output] {key}", value) for key, value in config.get("output", {}).items()]
    given += [(key, f"--{key}", value) for key, value in (("csv", csv), ("summary", summary)) if value]
    outputs = {key: (name, output_path(name, value)) for key, name, value in given}
    # An output may name no file the run reads, nor the other output: a clash names both where each was given.
    named = {Path(path).resolve(): f"the scenario file {path}"}
    named.update((Path(config[s][k]).resolve(), f"{path}: [{s}] {k}")
                 for s, k in (("open_loop", "script"), ("smc", "reference")) if k in config.get(s, {}))
    for name, value in (outputs[key] for key in ("csv", "summary") if key in outputs):
        if (same := Path(value).resolve()) in named:
            raise ValueError(f"{named[same]} and {name} name one file: {same}")
        named[same] = name
    output = {f"{key}_path": value for key, (_, value) in outputs.items()}
    return _section(path, "scenario", Scenario, dict(**output, **built, **config.get("scenario", {})))


def output_path(name: str, path) -> str:
    """path as a string once it names a file in a directory that exists, so an output that cannot be written fails
    before step 0; the ValueError otherwise starts with name, where the path was given."""
    if Path(path).is_dir():
        raise ValueError(f"{name}: is a directory: {path}")
    if not Path(path).parent.is_dir():
        raise ValueError(f"{name}: no such directory: {Path(path).parent}")
    return str(path)


_PARAMS_SCHEMA = {"params": SCENARIO_SCHEMA["params"], "trim": {"speed": float, "thrust": float}}


def _trim(speed=1.0, thrust=0.05) -> tuple:
    check_sign("speed", speed)
    check_sign("thrust", thrust)
    return speed, thrust


def load_params(path) -> tuple:
    """Read [params] and optional [trim] (nothing else) from a versioned config file: (params, speed, thrust)."""
    config = read_config(path, _PARAMS_SCHEMA)
    params = _section(path, "params", AirshipParams, config.get("params", {}))
    return params, *_section(path, "trim", _trim, config.get("trim", {}))
