import csv
import io
import math
import re
import sys
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ionblimp import dynamics, harness, thruster
from ionblimp.buoyancy import EnvelopeGeometry, lift_budget
from ionblimp.dynamics import GIMBAL_LIMIT, PLANAR_TOL, AirshipParams, BodyState, ThrusterCommand
from ionblimp.harness import (
    CONFIG_HEADER,
    CSV_COLUMNS,
    SCENARIO_SCHEMA,
    STATE_LABELS,
    NonFiniteState,
    OpenLoopCommand,
    Scenario,
    ScenarioError,
    SimRecord,
    SmcScenarioConfig,
    format_summary,
    integrate_step,
    load_scenario,
    run_scenario,
    servo_map,
    write_records_csv,
)
from ionblimp.inner_loop import (
    FirstOrderTf,
    InnerLoopConfig,
    design_ku_unity_dc,
    kw_lower_bound,
    linearize,
    step_response,
)
from ionblimp.smc import ReferenceTrajectory, SmcGains, SmcModel, lyapunov_monitor, sliding_surface
from ionblimp.thruster import throttle_to_thrust

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


# --- RK4 ---------------------------------------------------------------------

def test_integrate_step_zero_derivative():
    y = integrate_step(lambda s, u: np.zeros(3), [1.0, 2.0, 3.0], None, 0.1)
    assert np.allclose(y, [1.0, 2.0, 3.0])


def test_integrate_step_constant_derivative_exact():
    y = np.array([0.0])
    for _ in range(10):
        y = integrate_step(lambda s, u: np.array([2.5]), y, None, 0.1)
    assert y[0] == pytest.approx(2.5, rel=1e-14)


def test_integrate_step_exponential_decay():
    y = np.array([1.0])
    for _ in range(1000):
        y = integrate_step(lambda s, u: [-c for c in s], y, None, 0.001)
    assert abs(y[0] - np.exp(-1.0)) < 1e-9


def test_integrate_step_input_held_constant():
    y = integrate_step(lambda s, u: np.array([u]), np.array([0.0]), 3.0, 0.5)
    assert y[0] == pytest.approx(1.5, rel=1e-14)


def test_integrate_step_nonfinite_names_component():
    def exploding(s, u):
        return np.array([0.0, np.inf, 0.0])

    with pytest.raises(NonFiniteState, match="v"):
        integrate_step(exploding, np.zeros(3), None, 0.1, labels=("u", "v", "w"))


def test_integrate_step_rejects_bad_dt():
    # nan and inf are refused here, not left to fail later as a non-finite state.
    for dt in (math.nan, math.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {re.escape(repr(dt))}$"):
            integrate_step(lambda s, u: s, (0.0, 0.0), None, dt)


def test_integrate_step_rejects_a_field_output_of_another_length():
    # numpy broadcasting once turned this into [0.1, 0.1, 0.1].
    with pytest.raises(ValueError, match=r"^derivative has 1 components, the state has 3$"):
        integrate_step(lambda s, u: np.array([1.0]), np.zeros(3), None, 0.1)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("bad", [[1.0], [1.0] * 4], ids=["shorter", "longer"])
def test_integrate_step_checks_every_stage_length(stage, bad):
    # A plain zip would truncate to the shorter of state and output.
    calls = []

    def field(s, u):
        calls.append(s)
        return bad if len(calls) == stage else [0.0] * 3

    with pytest.raises(ValueError, match=rf"^derivative has {len(bad)} components, the state has 3$"):
        integrate_step(field, (0.0, 0.0, 0.0), None, 0.1)
    assert len(calls) == stage


def test_integrate_step_returns_a_float_tuple():
    y = integrate_step(lambda s, u: [2.0 * c for c in s], (1.0, -2.0), None, 0.1, labels=("a", "b"))
    assert type(y) is tuple and all(type(c) is float for c in y)
    growth = 1.0 + 0.2 + 0.2**2 / 2 + 0.2**3 / 6 + 0.2**4 / 24  # RK4's Taylor polynomial of exp(0.2)
    assert y == pytest.approx((growth, -2.0 * growth), rel=1e-14)


def test_rk4_convergence_order_on_exponential():
    def final_error(dt):
        y = np.array([1.0])
        for _ in range(int(round(1.0 / dt))):
            y = integrate_step(lambda s, u: [-c for c in s], y, None, dt)
        return abs(y[0] - np.exp(-1.0))

    e1, e2 = final_error(0.02), final_error(0.01)
    order = np.log2(e1 / e2)
    assert order >= 3.5


def _pendulum(s, u):
    return [s[1], -math.sin(s[0])]


def _pendulum_path(state, end, steps):
    """The states at end/64, 2 end/64, ..., end of an RK4 run of `steps` steps (a multiple of 64)."""
    dt, y, path = end / steps, state, []
    for i in range(1, steps + 1):
        y = integrate_step(_pendulum, y, None, dt, labels=("theta", "omega"))
        if i % (steps // 64) == 0:
            path.append(y)
    return path


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(theta=st.floats(-2.5, 2.5), omega=st.floats(-1.0, 1.0), end=st.floats(0.5, 2.0))
@example(theta=-1.5625, omega=0.75, end=0.75)
def test_rk4_error_falls_16x_per_halving_on_a_pendulum(theta, omega, end):
    # On a smooth nonlinear field RK4's global error is C(t) dt^4 + O(dt^5), so the gap between the
    # 64- and 128-step runs is 2^4 = 16 times the gap between the 128- and 256-step runs, read here
    # within [14, 18] (15.7-16.2 over 2,000 derandomized draws). Each gap is the largest over the 64
    # times the runs share: at one time alone C(t) can vanish (at t = end near theta = -1.6375,
    # omega = 0.7777, end = 0.776), and there the ratio takes any value at every dt; the example read
    # 18.74 at its end. At rest (the equilibrium) every error is zero.
    assume(math.hypot(theta, omega) > 0.2)
    coarse, mid, fine = (_pendulum_path((theta, omega), end, n) for n in (64, 128, 256))
    assert 14.0 < max(map(math.dist, coarse, mid)) / max(map(math.dist, mid, fine)) < 18.0


def test_an_int_initial_value_is_recorded_as_a_float():
    # BodyState stores its fields as floats, so the plants' initial tuples hold floats.
    ref = ReferenceTrajectory(times=[0.0, 1.0], poses=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    smc = SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0), reference=ref)
    for sc in (Scenario(initial=BodyState(u=1, h=2), duration=0.002, dt=0.001),
               Scenario(initial=BodyState(x=1, y=-1, r=0, h=2.0), controller="smc", smc=smc,
                        duration=0.002, dt=0.001)):
        first = run_scenario(sc).records[0]
        assert all(type(value) is float for value in first[1:13]), first


INT_REFERENCE = ReferenceTrajectory(times=[0.0, 1.0], poses=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def _all_floats(records, column):
    return all(type(getattr(rec, column)) is float for rec in records)


def test_an_int_open_loop_thrust_is_recorded_as_a_float():
    records = run_scenario(Scenario(open_loop=OpenLoopCommand(thrust=1), duration=0.002, dt=0.001)).records
    assert _all_floats(records, "thrust") and records[0].thrust == 1.0


def test_an_int_duration_and_dt_are_summarized_as_floats():
    summary = run_scenario(Scenario(duration=1, dt=1)).summary
    assert format_summary(summary).splitlines()[2:4] == ["dt=1.0", "duration=1.0"]


def test_an_int_smc_altitude_is_recorded_as_a_float_on_every_row():
    smc = SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0), reference=INT_REFERENCE)
    sc = Scenario(initial=BodyState(h=2), controller="smc", smc=smc, duration=0.003, dt=0.001)
    assert _all_floats(run_scenario(sc).records, "h")


def test_an_int_smc_t_max_is_recorded_as_a_float_when_thrust_saturates():
    smc = SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1e6), reference=INT_REFERENCE, t_max=1)
    records = run_scenario(Scenario(controller="smc", smc=smc, duration=0.002, dt=0.001)).records
    assert "saturation" in records[0].flags and records[0].thrust == 1.0
    assert _all_floats(records, "thrust")


@pytest.mark.parametrize("build", [
    lambda: BodyState(h="2"), lambda: OpenLoopCommand(thrust="1"), lambda: Scenario(dt="0.5"),
    lambda: SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0), reference=INT_REFERENCE,
                              t_max="1"),
], ids=["body-state", "open-loop", "scenario", "smc-config"])
def test_a_numeric_field_refuses_a_string(build):
    with pytest.raises(TypeError, match="must be a number, got '"):
        build()


# --- servo mapping -----------------------------------------------------------

def test_servo_map_center_and_range():
    assert servo_map(ThrusterCommand(thrust=0.01)) == (90.0, 90.0)
    out = servo_map(ThrusterCommand(thrust=0.01, yaw_deflection=GIMBAL_LIMIT, pitch_deflection=-GIMBAL_LIMIT))
    assert out == (180.0, 0.0)


PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
# Every deflection a ThrusterCommand accepts: inside the gimbal limit and exactly at it.
DEFLECTIONS = (st.floats(-GIMBAL_LIMIT, GIMBAL_LIMIT)
               | st.sampled_from([-GIMBAL_LIMIT, GIMBAL_LIMIT, math.nextafter(GIMBAL_LIMIT, 0.0)]))


@PROPERTY
@given(cmd=st.builds(ThrusterCommand, st.floats(0.0, 0.1), DEFLECTIONS, DEFLECTIONS))
def test_servo_map_range_of_valid_commands(cmd):
    # The map is fixed (90 deg center, travel equal to the gimbal limit) and
    # clamps nothing: a valid command is in the servos' range by construction.
    out = servo_map(cmd)
    assert out == (90.0 + math.degrees(cmd.yaw_deflection), 90.0 + math.degrees(cmd.pitch_deflection))
    assert all(0.0 <= angle <= 180.0 for angle in out)


# --- scenarios ---------------------------------------------------------------

def hover_scenario(**overrides):
    base = dict(
        params=AirshipParams(),
        initial=BodyState(h=1.8),
        model="full",
        controller="open_loop",
        duration=0.5,
        dt=0.001,
    )
    base.update(overrides)
    return Scenario(**base)


def test_hover_scenario_stays_put():
    result = run_scenario(hover_scenario())
    final = result.states()[-1]
    assert np.allclose(final, BodyState(h=1.8).as_array(), atol=1e-12)
    assert all(rec.flags == () for rec in result.records)
    assert result.summary["max_speed"] == 0.0


def test_scenario_records_time_grid():
    result = run_scenario(hover_scenario(duration=0.1, dt=0.01))
    t = np.array([rec.t for rec in result.records])
    assert len(t) == 11
    assert np.allclose(np.diff(t), 0.01)


def test_open_loop_script_zoh():
    script = np.array([[0.0, 0.0, 0.0, 0.0], [0.2, 0.02, 0.1, 0.0]])
    cmdgen = OpenLoopCommand(script=script)
    assert cmdgen.command_at(0.1).thrust == 0.0
    assert cmdgen.command_at(0.2).thrust == 0.02
    assert cmdgen.command_at(5.0).yaw_deflection == pytest.approx(0.1)


def test_open_loop_throttle_routes_through_map():
    cmd = OpenLoopCommand(throttle=1.0).command_at(0.0)
    assert cmd.thrust == pytest.approx(1.20e-3 * 9.80665)


def test_open_loop_throttle_is_converted_once(monkeypatch):
    calls = []

    def counting(tmap, throttle):
        calls.append(throttle)
        return throttle_to_thrust(tmap, throttle)

    monkeypatch.setattr(thruster, "throttle_to_thrust", counting)
    result = run_scenario(hover_scenario(open_loop=OpenLoopCommand(throttle=0.75), duration=1.0, dt=0.01))
    assert len(result.records) == 101
    assert calls == [0.75]


SCRIPT = np.array([[0.0, 0.01, 0.0, 0.0]])


@pytest.mark.parametrize("values", [
    {"thrust": 0.05, "throttle": 0.3},
    {"script": SCRIPT, "thrust": 0.05},
    {"script": SCRIPT, "throttle": 0.0},
    {"script": SCRIPT, "delta_y": 0.1},
    {"script": SCRIPT, "delta_p": -0.1},
], ids=["thrust-throttle", "script-thrust", "script-throttle", "script-delta-y", "script-delta-p"])
def test_open_loop_command_rejects_dropped_values(values):
    a, b = values
    with pytest.raises(ValueError, match=f"^{a} and {b} cannot both be set"):
        OpenLoopCommand(**values)


def test_open_loop_command_allows_defaults_beside_script_or_throttle():
    OpenLoopCommand(throttle=0.3, thrust=0.0)
    OpenLoopCommand(script=SCRIPT, thrust=0.0, delta_y=0.0, delta_p=0.0)


@pytest.mark.parametrize("values, message", [
    ({"thrust": -0.1}, "^thrust must be non-negative"),
    ({"delta_y": 2.0}, r"^\|delta_y\| must not exceed"),
    ({"delta_p": -2.0}, r"^\|delta_p\| must not exceed"),
    ({"throttle": 1.5}, r"^throttle 1.5 outside \[0.0, 1.0\]"),
    ({"throttle": -0.1}, r"^throttle -0.1 outside \[0.0, 1.0\]"),
    ({"script": [[0.0, 0.01, 0.0, 0.0], [0.005, 0.01, 2.0, 0.0]]}, r"^script row at t=0.005: \|delta_y\|"),
    ({"script": [[0.0, -0.01, 0.0, 0.0]]}, "^script row at t=0.0: thrust must be non-negative"),
    ({"script": [[0.0, 0.01, 0.0]]}, r"^script needs rows of .* got shape \(1, 3\)"),
    ({"script": [[0.0, 0.01, 0.0, 0.0], [2.0, 0.03, 0.0, 0.0], [1.0, 0.02, 0.0, 0.0]]},
     r"^script row at t=1.0: times must be strictly increasing"),
    ({"script": [[0.0, 0.01, 0.0, 0.0], [0.0, 0.02, 0.0, 0.0]]},
     r"^script row at t=0.0: times must be strictly increasing"),
    ({"script": [[1.0, 0.01, 0.0, 0.0]]}, r"^script row at t=1.0: the first row must be at t = 0"),
    ({"script": [[-1.0, 0.01, 0.0, 0.0]]}, r"^script row at t=-1.0: the first row must be at t = 0"),
], ids=["thrust", "delta-y", "delta-p", "throttle-high", "throttle-low", "script-delta-y",
        "script-thrust", "script-shape", "script-time-goes-back", "script-time-repeats",
        "script-starts-late", "script-starts-early"])
def test_open_loop_command_rejects_out_of_range_values(values, message):
    with pytest.raises(ValueError, match=message):
        OpenLoopCommand(**values)


@pytest.mark.parametrize("t_max", [0.0, -0.01])
def test_smc_config_rejects_non_positive_t_max(t_max):
    with pytest.raises(ValueError, match="t_max must be positive"):
        SmcScenarioConfig(**VALID_SMC, t_max=t_max)


def test_scenario_error_carries_timestep_context():
    # destabilizing surge feedback drives u to overflow, which the stepper
    # must report with the timestep attached
    sc = hover_scenario(
        controller="inner_loop",
        duration=5.0,
        dt=0.01,
        initial=BodyState(u=1.0, h=1.8),
        inner_loop=InnerLoopConfig(trim_speed=0.0, trim_thrust=0.05, k_u=-100.0),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ScenarioError, match="step"):
            run_scenario(sc)


def test_inner_loop_regulates_surge_on_planar_model():
    params = AirshipParams(drag_coeff=0.1848)
    sc = Scenario(
        params=params,
        initial=BodyState(u=0.5, h=1.8),
        model="planar",
        controller="inner_loop",
        duration=20.0,
        dt=0.01,
        inner_loop=InnerLoopConfig(trim_speed=0.3, trim_thrust=0.01, k_u=0.5),
    )
    result = run_scenario(sc)
    final_u = result.records[-1].u
    # feedback pulls u toward the trim speed from above
    assert abs(final_u - 0.3) < 0.05


def test_gimbal_noise_is_seeded_and_bounded():
    sc1 = hover_scenario(gimbal_noise=0.05, seed=5, duration=0.1, dt=0.01)
    sc2 = hover_scenario(gimbal_noise=0.05, seed=5, duration=0.1, dt=0.01)
    r1, r2 = run_scenario(sc1), run_scenario(sc2)
    y1 = [rec.delta_y for rec in r1.records]
    y2 = [rec.delta_y for rec in r2.records]
    assert y1 == y2
    assert all(abs(v) <= 0.05 for v in y1)
    assert any(v != 0.0 for v in y1)


def test_smc_scenario_converges_on_heading_step():
    ref = ReferenceTrajectory(times=[0.0, 10.0], poses=[[0, 0, 0.5], [0, 0, 0.5]])
    sc = Scenario(
        params=AirshipParams(),
        initial=BodyState(h=1.8),
        controller="smc",
        duration=10.0,
        dt=0.002,
        smc=SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0), reference=ref),
    )
    result = run_scenario(sc)
    sm = result.summary
    assert sm["reaching_time"] <= sm["reaching_bound"] * 1.1
    assert abs(result.records[-1].psi - 0.5) < 0.01
    assert sm["s_energy_final"] < 1e-6
    # |s| never grows after the reaching phase
    s_inf = np.array([np.max(np.abs(rec.s)) for rec in result.records])
    reached = np.flatnonzero(s_inf < 1e-3)[0]
    assert np.max(s_inf[reached:]) < 1e-3


def test_smc_records_sum_the_lyapunov_channels_left_to_right():
    # sum() compensates its rounding from Python 3.12 on, so it would record other
    # bits there than on 3.10 and 3.11. Every row holds 0.0 + x + y + psi, as sum()
    # adds before 3.12; math.fsum differs from it on 46 and 29 of these 201 rows.
    ref = ReferenceTrajectory(times=[0.0, 1.0, 2.0], poses=[[0.0, 0.0, 0.0], [0.8, -0.5, 0.6], [1.3, -0.7, 0.9]])
    gains = SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0)
    sc = Scenario(initial=BodyState(x=0.2, y=-0.1, h=2.0), model="planar", controller="smc",
                  smc=SmcScenarioConfig(gains=gains, reference=ref), duration=2.0, dt=0.01)
    for rec in run_scenario(sc).records:
        v, v_dot = lyapunov_monitor(gains, (rec.s_x, rec.s_y, rec.s_psi))
        assert rec.lyap_v == 0.0 + v[0] + v[1] + v[2], rec
        assert rec.lyap_vdot == 0.0 + v_dot[0] + v_dot[1] + v_dot[2], rec


def test_smc_step_evaluates_the_sliding_variable_once(monkeypatch):
    calls = []

    def counting(gains, err):
        calls.append(err)
        return sliding_surface(gains, err)

    monkeypatch.setattr("ionblimp.smc.sliding_surface", counting)  # the pose plant binds it when it is built
    result = run_scenario(hover_scenario(**SMC_API, duration=0.1, dt=0.01))
    assert len(calls) == len(result.records) == 11


def test_scenario_validation():
    with pytest.raises(ValueError):
        hover_scenario(model="2d")
    with pytest.raises(ValueError):
        hover_scenario(controller="pid")
    with pytest.raises(ValueError):
        hover_scenario(dt=-1.0)
    with pytest.raises(ValueError):
        hover_scenario(controller="smc")  # missing smc config



@pytest.mark.parametrize("timing", [
    {"dt": float("nan")}, {"dt": float("inf")},
    {"duration": float("nan")}, {"duration": float("inf")},
])
def test_scenario_rejects_non_finite_timing(timing):
    with pytest.raises(ValueError, match="finite"):
        hover_scenario(**timing)


@pytest.mark.parametrize("noise", [-0.01, float("nan"), float("inf"), 1e308])
def test_scenario_rejects_bad_gimbal_noise(noise):
    with pytest.raises(ValueError, match="gimbal_noise"):
        hover_scenario(gimbal_noise=noise)


def test_the_widest_gimbal_noise_draw_runs():
    # Each draw spans 2 * gimbal_noise; the largest noise whose span is finite loads and runs.
    result = run_scenario(hover_scenario(gimbal_noise=sys.float_info.max / 2, duration=0.01, dt=0.01))
    assert len(result.records) == 2


VALID_GAINS = {"c1": 1.0, "c2": 1.0, "epsilon": 0.05, "k": 1.0}
VALID_INNER = {"trim_speed": 0.3, "trim_thrust": 0.01, "k_u": 0.5}
VALID_REFERENCE = {"times": [0.0, 1.0], "poses": [[0, 0, 0], [0, 0, 0.5]]}
VALID_SMC = {"gains": SmcGains(**VALID_GAINS), "reference": ReferenceTrajectory(**VALID_REFERENCE)}
VALID_GAS = dict(zip([f.name for f in fields(thruster.GasIonParams)],
                     (4.65e-26, 4.65e-26, 300.0, 1.602176634e-19, 1e-19, 1e15, 2.5e25)))
VALID_MAP = {"inputs": (0.0, 1.0), "thrust_grams": (0.0, 1.0)}
# Each parameter dataclass, a valid base and its numeric fields. Every float field
# also takes the int 1 (a throttle is at most 1, a gimbal deflection at most pi/2);
# AirshipParams' base has inertias large enough for inertia_xz = 1.
NUMERIC_CLASSES = [
    (AirshipParams, {"inertia_x": 10.0, "inertia_z": 10.0}, [f.name for f in fields(AirshipParams)]),
    (BodyState, {}, STATE_LABELS),
    (OpenLoopCommand, {}, ("thrust", "throttle", "delta_y", "delta_p", "script")),
    (SmcScenarioConfig, VALID_SMC, ("t_max", "added_mass_x", "added_mass_y", "added_inertia_z", "cg_x", "cg_y")),
    (Scenario, {}, ("duration", "dt", "gimbal_noise")),
    (SmcGains, VALID_GAINS, ("c1", "c2", "epsilon", "k", "boundary_layer")),
    (InnerLoopConfig, VALID_INNER, ("trim_speed", "trim_thrust", "k_u", "k_w", "k1", "k2")),
    (FirstOrderTf, {"gain": 3.358, "pole": 0.0575}, ("gain", "pole")),
    (thruster.GasIonParams, VALID_GAS, list(VALID_GAS)),
    (thruster.ThrusterGeometry, {"electrode_gap": 0.03, "dry_mass": 0.02},
     ("electrode_gap", "dry_mass")),
    (EnvelopeGeometry, {"semi_axis_a": 0.985, "semi_axis_b": 0.255, "semi_axis_c": 0.255},
     ("semi_axis_a", "semi_axis_b", "semi_axis_c", "envelope_mass")),
    (ReferenceTrajectory, VALID_REFERENCE, ("times", "poses")),
    (thruster.ThrustMap, VALID_MAP, list(VALID_MAP)),
]
NUMERIC_FIELDS = [(cls, valid, name) for cls, valid, names in NUMERIC_CLASSES for name in names]
# A table field checks its own entries: the table it is given, holding one bad value.
TABLES = {
    "script": lambda bad: np.array([[0.0, bad, 0.0, 0.0]]),
    "times": lambda bad: [0.0, bad], "poses": lambda bad: [[0, 0, 0], [0, bad, 0]],
    "inputs": lambda bad: (0.0, bad), "thrust_grams": lambda bad: (0.0, bad),
}


@pytest.mark.parametrize("cls, valid, name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in NUMERIC_FIELDS])
def test_config_dataclasses_reject_non_finite(cls, valid, name):
    # A float field refuses nan, +-inf and an int beyond float range as not finite and
    # a string as not a number, naming itself, and stores an int as a Python float.
    cls(**valid)  # the valid base builds
    table = TABLES.get(name)
    for bad in (float("nan"), float("inf"), float("-inf")) + (() if table else (10**400,)):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{**valid, name: table(bad) if table else bad})
    if table is None:
        with pytest.raises(TypeError, match=f"^{name} must be a number, got '1'$"):
            cls(**{**valid, name: "1"})
        stored = getattr(cls(**{**valid, name: 1}), name)
        assert type(stored) is float and stored == 1.0


VALID_BASES = {cls: valid for cls, valid, _ in NUMERIC_CLASSES}
# The fields whose sign store_floats bounds, each with its bound.
SIGNED_FIELDS = [
    *[(AirshipParams, name, "positive") for name in ("mass", "inertia_x", "inertia_y", "inertia_z", "air_density")],
    (AirshipParams, "yaw_damping", "non-negative"),
    (SmcScenarioConfig, "t_max", "positive"),
    (Scenario, "dt", "positive"),
    (Scenario, "gimbal_noise", "non-negative"),
    (SmcGains, "k", "positive"),
    (SmcGains, "epsilon", "non-negative"),
    (SmcGains, "boundary_layer", "non-negative"),
    *[(thruster.GasIonParams, name, "positive") for name in VALID_GAS],
    (thruster.ThrusterGeometry, "electrode_gap", "positive"),
    (thruster.ThrusterGeometry, "dry_mass", "positive"),
    *[(EnvelopeGeometry, name, "positive") for name in ("semi_axis_a", "semi_axis_b", "semi_axis_c")],
    (EnvelopeGeometry, "envelope_mass", "non-negative"),
    (thruster.ThrustMap, "thrust_grams", "non-negative"),
]


@pytest.mark.parametrize("cls, name, sign", SIGNED_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in SIGNED_FIELDS])
def test_a_signed_field_refuses_the_wrong_sign_naming_itself(cls, name, sign):
    # 0 where the field must be positive, and -1 always, are refused in check_sign's one form;
    # a non-negative field stores 0.0. A table field holds the value as one of its entries.
    valid, table = VALID_BASES[cls], TABLES.get(name, lambda x: x)
    for bad in (0.0, -1.0) if sign == "positive" else (-1.0,):
        with pytest.raises(ValueError, match=f"^{name} must be {sign} and finite, got {bad!r}$"):
            cls(**{**valid, name: table(bad)})
    if sign == "non-negative":
        assert getattr(cls(**{**valid, name: table(0.0)}), name) == table(0.0)


# Each table field, a valid base and a table holding one value where the bad one goes.
TABLE_FIELDS = [
    (OpenLoopCommand, {}, "script", lambda x: [[0.0, 0.0, 0.0, 0.0], [1, x, 0, 0]]),
    (ReferenceTrajectory, VALID_REFERENCE, "times", lambda x: [0, x]),
    (ReferenceTrajectory, VALID_REFERENCE, "poses", lambda x: [[0, 0, 0], [x, 0, 0]]),
    (thruster.ThrustMap, VALID_MAP, "inputs", lambda x: (0, x)),
    (thruster.ThrustMap, VALID_MAP, "thrust_grams", lambda x: (0, x)),
    (SmcModel, {"aero_matrix": np.zeros((3, 3))}, "mass_matrix", lambda x: [[1, 0, 0], [0, x, 0], [0, 0, 1]]),
    (SmcModel, {"mass_matrix": np.eye(3)}, "aero_matrix", lambda x: [[1, 0, 0], [0, x, 0], [0, 0, 1]]),
]


@pytest.mark.parametrize("cls, valid, name, table", TABLE_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name, _ in TABLE_FIELDS])
def test_a_table_field_follows_the_number_rule(cls, valid, name, table):
    # Every entry of a table gets the float fields' rule, naming the table: a string is not a
    # number, nan, +-inf and an int beyond float range are not finite, and ints (also as 0-d arrays)
    # are stored as floats.
    with pytest.raises(TypeError, match=f"^{name} must be a number, got '1'$"):
        cls(**{**valid, name: table("1")})
    for bad in (float("nan"), float("inf"), float("-inf"), 10**400):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            cls(**{**valid, name: table(bad)})
    for one in (1, np.array(1)):
        stored = getattr(cls(**{**valid, name: table(one)}), name)
        flat = [x for row in stored for x in (row if isinstance(row, tuple) else (row,))]
        assert type(stored) is tuple and all(type(x) is float for x in flat)


def test_an_int_thrust_map_is_dumped_as_floats():
    text = thruster.dump_thrust_map(thruster.ThrustMap((0, 1), (0, 2)))
    assert text == "# input  thrust_grams\n0.0  0.0\n1.0  2.0\n"


@pytest.mark.parametrize("script, shape", [
    ([[0.0, 0.01, 0.0, 0.0], [1.0, 0.01, 0.0]], "(2,)"),
    ([[0.0, 0.01, 0.0], [1.0, 0.01, 0.0, 0.0]], "(2,)"),
    ([], "(0,)"),
    ([0.0, 0.01, 0.0, 0.0], "(4,)"),
    ([[[0.0, 0.01, 0.0, 0.0]]], "(1, 1, 4)"),
], ids=["ragged-short-last", "ragged-short-first", "empty", "one-row-flat", "three-dimensional"])
def test_open_loop_script_of_the_wrong_shape_names_its_shape(script, shape):
    message = f"script needs rows of t, thrust, delta_y, delta_p, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OpenLoopCommand(script=script)


@pytest.mark.parametrize("kwargs", [
    {"mass_matrix": np.eye(3).ravel(), "aero_matrix": np.zeros((3, 3))},
    {"mass_matrix": np.eye(3), "aero_matrix": np.zeros((3, 2))},
    {"mass_matrix": [[1, 0, 0], [0, 1], [0, 0, 1]], "aero_matrix": np.zeros((3, 3))},
])
def test_smc_model_refuses_a_matrix_that_is_not_3x3(kwargs):
    with pytest.raises(ValueError, match="^mass_matrix and aero_matrix must be 3x3$"):
        SmcModel(**kwargs)


def test_the_scalar_rule_does_not_read_a_float_field_as_a_table():
    # An array with a dimension is not a number, even of one value; a 0-d array is one.
    with pytest.raises(TypeError, match=re.escape("mass must be a number, got array([0.3])")):
        AirshipParams(mass=np.array([0.3]))
    mass = AirshipParams(mass=np.array(0.3)).mass
    assert type(mass) is float and mass == 0.3


NAN = float("nan")
# Every function argument under the sign rule: a call taking its value, its name and its bound.
SIGNED_ARGUMENTS = {
    "gap": (lambda x: thruster.thrust_from_current(x, 1e-3, 2e-4), "gap", "positive"),
    "current": (lambda x: thruster.thrust_from_current(0.03, x, 2e-4), "current", "non-negative"),
    "mobility": (lambda x: thruster.thrust_from_current(0.03, 1e-3, x), "mobility", "positive"),
    "diffusivity-mobility": (lambda x: thruster.einstein_diffusivity(x, 300.0, 1.6e-19), "mobility", "non-negative"),
    "diffusivity-temperature": (lambda x: thruster.einstein_diffusivity(2e-4, x, 1.6e-19), "temperature", "positive"),
    "diffusivity-charge": (lambda x: thruster.einstein_diffusivity(2e-4, 300.0, x), "charge", "positive"),
    "spacing": (lambda x: thruster.spacing_to_thrust(thruster.SPACING_MAP_DUAL_RING, x), "spacing", "positive"),
    "thrust-to-weight": (lambda x: thruster.thrust_to_weight(0.01, x), "dry_mass", "positive"),
    "lift-per-liter": (lambda x: lift_budget(EnvelopeGeometry(1.0, 1.0, 1.0), x), "lift_per_liter", "positive"),
    "linearize-speed": (lambda x: linearize(AirshipParams(), x, 0.05), "trim_speed", "positive"),
    "linearize-thrust": (lambda x: linearize(AirshipParams(), 0.4, x), "trim_thrust", "positive"),
    "ku-numerator": (lambda x: design_ku_unity_dc(x, 0.0575), "numerator", "positive"),
    "kw-thrust": (lambda x: kw_lower_bound(AirshipParams(lift_slope=0.1), 0.4, x), "trim_thrust", "positive"),
    "kw-speed": (lambda x: kw_lower_bound(AirshipParams(lift_slope=0.1), x, 0.05), "trim_speed", "non-negative"),
    "step-duration": (lambda x: step_response(FirstOrderTf(3.358, 0.0575), x, 0.1), "duration", "positive"),
    "step-dt": (lambda x: step_response(FirstOrderTf(3.358, 0.0575), 1.0, x), "dt", "positive"),
}


@pytest.mark.parametrize("call, message", [
    (lambda: thruster.thrust_from_current(NAN, 1e-3, 2e-4), "gap must be positive"),
    (lambda: thruster.thrust_from_current(0.03, NAN, 2e-4), "current must be non-negative"),
    (lambda: thruster.thrust_from_current(0.03, 1e-3, NAN), "mobility must be positive"),
    (lambda: thruster.einstein_diffusivity(NAN, 300.0, 1.6e-19), "mobility must be non-negative and finite, got nan"),
    (lambda: thruster.einstein_diffusivity(2e-4, NAN, 1.6e-19), "temperature must be positive and finite, got nan"),
    (lambda: thruster.einstein_diffusivity(2e-4, 300.0, NAN), "charge must be positive and finite, got nan"),
    (lambda: thruster.thrust_to_weight(0.01, NAN), "dry_mass must be positive"),
    (lambda: lift_budget(EnvelopeGeometry(1.0, 1.0, 1.0), NAN), "lift_per_liter must be positive"),
    (lambda: linearize(AirshipParams(), NAN, 0.05), "trim_speed must be positive"),
    (lambda: linearize(AirshipParams(), 0.4, NAN), "trim_thrust must be positive"),
    (lambda: design_ku_unity_dc(NAN, 0.0575), "numerator must be positive"),
    (lambda: kw_lower_bound(AirshipParams(), 0.4, NAN), "trim_thrust must be positive"),
    (lambda: kw_lower_bound(AirshipParams(lift_slope=0.1), NAN, 0.05), "trim_speed must be non-negative"),
    (lambda: kw_lower_bound(AirshipParams(lift_slope=0.1), -0.4, 0.05), "trim_speed must be non-negative"),
    *[(partial(call, bad), f"{name} must be {sign} and finite, got {bad!r}")
      for call, name, sign in SIGNED_ARGUMENTS.values()
      for bad in (math.inf, 0.0 if sign == "positive" else -1.0)],
], ids=["gap", "current", "mobility", "diffusivity-mobility", "diffusivity-temperature", "diffusivity-charge",
        "thrust-to-weight", "lift-per-liter", "linearize-speed", "linearize-thrust",
        "ku-numerator", "kw-thrust", "kw-speed", "kw-negative-speed",
        *[f"{key}-{bad}" for key in SIGNED_ARGUMENTS for bad in ("inf", "wrong-sign")]])
def test_a_positive_only_argument_refuses_nan(call, message):
    # Each argument goes through dynamics.check_sign: nan, +inf and the wrong sign are refused by name, not returned.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: thruster.einstein_diffusivity(1e300, 1e300, 1e-300),
     "diffusivity at mobility=1e+300, temperature=1e+300, charge=1e-300 must be finite, got inf"),
    (lambda: design_ku_unity_dc(1e-320, 0.0575), "k_u at numerator=1e-320, pole=0.0575 must be finite, got -inf"),
    (lambda: design_ku_unity_dc(1.0, NAN), "k_u at numerator=1.0, pole=nan must be finite, got nan"),
    (lambda: kw_lower_bound(AirshipParams(lift_slope=0.1), 1.0, 1e-320),
     "k_w bound at trim_speed=1.0, trim_thrust=1e-320 must be finite, got inf"),
    (lambda: thruster.thrust_to_weight(1e300, 1e-300),
     "thrust_to_weight at thrust=1e+300, dry_mass=1e-300 must be finite, got inf"),
    (lambda: thruster.thrust_to_weight(NAN, 0.02),
     "thrust_to_weight at thrust=nan, dry_mass=0.02 must be finite, got nan"),
], ids=["diffusivity", "ku", "ku-nan-pole", "kw", "thrust-to-weight", "thrust-to-weight-nan-thrust"])
def test_a_result_that_overflows_is_refused_naming_the_arguments(call, message):
    # Finite arguments within the sign rule can still overflow the result: it is refused, not returned.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_ground_flag_on_every_plant():
    ref = ReferenceTrajectory(times=[0.0, 1.0], poses=[[0, 0, 0.5], [0, 0, 0.5]])
    smc = SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0), reference=ref)
    for controller in ("open_loop", "smc"):
        sc = hover_scenario(model="planar", controller=controller, smc=smc if controller == "smc" else None,
                            initial=BodyState(h=-1.0), duration=0.1, dt=0.01)
        result = run_scenario(sc)
        assert all("ground" in rec.flags for rec in result.records)
        assert result.summary["ground_steps"] == 11


SMC_API = {"model": "planar", "controller": "smc", "smc": SmcScenarioConfig(**VALID_SMC)}
SCRIPT = np.array([[0.0, 0.01, 0.0, 0.0], [0.5, 0.02, 0.1, 0.0]])


@pytest.mark.parametrize("overrides, message", [
    # what a scenario file may not say is refused from Python too, naming the field
    ({**SMC_API, "model": "full", "gimbal_noise": 0.3, "open_loop": OpenLoopCommand(thrust=0.05),
      "initial": BodyState(h=1.8, w=0.4)}, "^open_loop: not read by the smc controller"),
    ({**SMC_API, "model": "full"}, "^model: must be 'planar' with the smc controller, got 'full'"),
    ({**SMC_API, "gimbal_noise": 0.3}, "^gimbal_noise: must be 0.0 with the smc controller"),
    ({**SMC_API, "open_loop": OpenLoopCommand(script=SCRIPT)}, "^open_loop: not read by the smc"),
    ({**SMC_API, "open_loop": OpenLoopCommand(throttle=0.0)}, "^open_loop: not read by the smc"),
    ({**SMC_API, "inner_loop": InnerLoopConfig(**VALID_INNER)}, "^inner_loop: not read by the smc"),
    ({**SMC_API, "initial": BodyState(h=1.8, w=0.4)}, r"^initial\.w: must be 0\.0 with the smc controller"),
    ({**SMC_API, "initial": BodyState(p=0.1)}, r"^initial\.p: "),
    ({**SMC_API, "initial": BodyState(q=0.1)}, r"^initial\.q: "),
    ({**SMC_API, "initial": BodyState(phi=0.1)}, r"^initial\.phi: "),
    ({**SMC_API, "initial": BodyState(theta=0.1)}, r"^initial\.theta: "),
    ({"smc": SmcScenarioConfig(**VALID_SMC)}, "^smc: not read by the open_loop controller"),
    ({"inner_loop": InnerLoopConfig(**VALID_INNER)}, "^inner_loop: not read by the open_loop"),
    ({"controller": "inner_loop", "inner_loop": InnerLoopConfig(**VALID_INNER),
      "open_loop": OpenLoopCommand(delta_p=0.1)}, "^open_loop: not read by the inner_loop"),
    ({"controller": "inner_loop", "inner_loop": InnerLoopConfig(**VALID_INNER),
      "smc": SmcScenarioConfig(**VALID_SMC)}, "^smc: not read by the inner_loop"),
])
def test_scenario_rejects_what_its_controller_does_not_read(overrides, message):
    with pytest.raises(ValueError, match=message):
        hover_scenario(**overrides)


def test_scenario_accepts_default_sections_and_the_pose_state_smc_reads():
    initial = BodyState(u=0.1, v=-0.2, r=0.05, x=1.0, y=2.0, h=1.8, psi=0.3)
    sc = hover_scenario(**SMC_API, open_loop=OpenLoopCommand(), inner_loop=None, initial=initial)
    assert sc.initial == initial
    hover_scenario(open_loop=OpenLoopCommand(script=SCRIPT))  # the open-loop controller reads it


@pytest.mark.parametrize("controller", ["open_loop", "inner_loop"])
@pytest.mark.parametrize("name", ["phi", "theta", "p", "q"])
def test_planar_scenario_rejects_an_initial_state_off_the_level_manifold(name, controller):
    sections = {"inner_loop": InnerLoopConfig(**VALID_INNER)} if controller == "inner_loop" else {}
    with pytest.raises(ValueError, match=rf"^initial\.{name}: must be 0\.0 with the planar model, got 0\.1$"):
        hover_scenario(model="planar", controller=controller, initial=BodyState(**{name: 0.1}), **sections)
    # planar_derivatives' own bound, PLANAR_TOL, to the ulp; the full model reads any attitude
    with pytest.raises(ValueError, match=rf"^initial\.{name}: "):
        hover_scenario(model="planar", controller=controller,
                       initial=BodyState(**{name: -math.nextafter(PLANAR_TOL, 1.0)}), **sections)
    hover_scenario(model="planar", controller=controller, initial=BodyState(**{name: -PLANAR_TOL}), **sections)
    hover_scenario(model="full", controller=controller, initial=BodyState(**{name: 0.1}), **sections)


def test_gimbal_limit_runs_at_the_servo_end_stop(tmp_path):
    # pi/2 exactly is inside the limit: the pitch servo sits at 180 deg, no flag.
    path = tmp_path / "limit.cfg"
    path.write_text(CONFIG_HEADER + "\n[scenario]\nduration = 0.02\ndt = 0.01\n"
                    "[open_loop]\ndelta_p = 1.5707963267948966\n", encoding="utf-8")
    result = run_scenario(load_scenario(path))
    assert [(rec.servo_pitch_deg, rec.flags) for rec in result.records] == [(180.0, ())] * 3


@pytest.mark.parametrize("overrides", [{}, SMC_API], ids=["open-loop", "smc"])
def test_scenario_rejects_negative_seed(overrides):
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1"):
        hover_scenario(**overrides, seed=-1)
    for seed in (1.5, True, "1"):  # refused here, not left to fail in the run's random generator
        with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            hover_scenario(**overrides, seed=seed)


def test_scenario_rejects_script_rows_past_the_end():
    script = [[0.0, 0.0, 0.0, 0.0], [5.0, 0.05, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"^open_loop: script row at t=5\.0: after the end, duration=0\.1$"):
        hover_scenario(open_loop=OpenLoopCommand(script=script), duration=0.1, dt=0.01)
    result = run_scenario(hover_scenario(open_loop=OpenLoopCommand(script=script), duration=5.0, dt=0.01))
    assert result.records[-1].thrust == 0.05  # a last row at the end is applied


@pytest.mark.parametrize("name", ["hover.cfg", "cruise.cfg", "heading_step.cfg", "scripted.cfg"])
def test_loaded_scenario_compares_equal_and_hashes(name, tmp_path):
    path = DEMO_SCENARIOS / name
    if name == "scripted.cfg":
        (tmp_path / "script.txt").write_text("0 0.01 0 0\n0.5 0.02 0.1 0\n", encoding="utf-8")
        path = tmp_path / name
        path.write_text(CONFIG_HEADER + "\n[scenario]\nduration = 1.0\n[open_loop]\nscript = script.txt\n",
                        encoding="utf-8")
    first, second = load_scenario(path), load_scenario(path)
    assert first == second
    assert hash(first) == hash(second)


def test_scenario_fields_are_what_a_scenario_file_sets():
    # Every Scenario field comes from a [scenario] key, a section built into
    # a config object, or an [output] path: none is settable only from Python.
    sections = ("params", "initial", "open_loop", "inner_loop", "smc")
    expected = {*SCENARIO_SCHEMA["scenario"], *sections, "csv_path", "summary_path"}
    assert {f.name for f in fields(Scenario)} == expected


def test_the_written_out_section_keys_are_the_fields_they_build():
    # harness lists the [smc] and [inner_loop] keys itself, so that loading a scenario imports neither module.
    smc = [*fields(SmcGains), *(f for f in fields(SmcScenarioConfig) if f.name != "gains")]
    inner = fields(InnerLoopConfig)
    assert list(SCENARIO_SCHEMA["smc"]) == [f.name for f in smc]
    assert [key for key, convert in SCENARIO_SCHEMA["smc"].items() if isinstance(convert("1"), Path)] == ["reference"]
    assert list(SCENARIO_SCHEMA["inner_loop"]) == [f.name for f in inner]
    assert set(SCENARIO_SCHEMA["inner_loop"].values()) == {float}
    assert harness.REQUIRED_KEYS == {"inner_loop": [f.name for f in inner if f.default is MISSING],
                                     "smc": [f.name for f in smc if f.default is MISSING]}


def test_scenario_refuses_one_step_more_than_max_steps():
    # The scenario files beyond the bound are rows of test_cli's test_bad_input_fails_at_load_naming_it.
    hover_scenario(duration=float(harness.MAX_STEPS), dt=1.0)  # the bound itself loads
    message = f"duration / dt must be at most {harness.MAX_STEPS} steps, got duration=10000001.0, dt=1.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hover_scenario(duration=harness.MAX_STEPS + 1.0, dt=1.0)


def test_scenario_rejects_duration_off_the_step_grid():
    with pytest.raises(ValueError, match="whole number"):
        hover_scenario(duration=0.025, dt=0.01)
    # 0.03 / 0.01 is 2.9999999999999996 in floating point: still three steps
    assert len(run_scenario(hover_scenario(duration=0.03, dt=0.01)).records) == 4


# --- rigid-body plant: actuator clamp and thrust wrench ----------------------

def _min_max_clamp(thrust, dy, dp):
    """The rigid plant's actuator clamp written as max/min calls."""
    return (max(thrust, 0.0), *(min(max(d, -GIMBAL_LIMIT), GIMBAL_LIMIT) for d in (dy, dp)))


def _plant_control(thrust, dy, dp):
    """(command, integrator input, saturated) of a rigid plant whose law demands (thrust, dy, dp)."""
    plant = harness._rigid_body_plant(hover_scenario(), lambda t, y: (thrust, dy, dp))
    _, cmd, u, saturated, _ = plant.control(0.0, plant.y0)
    return cmd, u, saturated


LIM, INF, NAN = GIMBAL_LIMIT, math.inf, math.nan
PAST_LIM = math.nextafter(GIMBAL_LIMIT, INF)


@pytest.mark.parametrize("demand, limited, saturated", [
    ((0.02, 0.3, -0.2), (0.02, 0.3, -0.2), False),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), False),
    ((-0.0, -0.0, -0.0), (-0.0, -0.0, -0.0), False),  # -0.0 is kept, not clamped to 0.0
    ((0.01, LIM, -LIM), (0.01, LIM, -LIM), False),
    ((-1e-9, PAST_LIM, -PAST_LIM), (0.0, LIM, -LIM), True),
    ((-INF, 2.0, -3.0), (0.0, LIM, -LIM), True),
    ((INF, INF, -INF), (INF, LIM, -LIM), True),
], ids=["inside", "zeros", "negative-zeros", "at-the-limits", "one-ulp-past", "far-past", "infinite"])
def test_rigid_plant_clamp(demand, limited, saturated):
    cmd, u, flagged = _plant_control(*demand)
    got = (cmd.thrust, cmd.yaw_deflection, cmd.pitch_deflection)
    assert [x.hex() for x in got] == [x.hex() for x in limited] == [x.hex() for x in _min_max_clamp(*demand)]
    assert flagged is saturated
    assert [x.hex() for x in u] == [x.hex() for x in dynamics.thruster_wrench(AirshipParams(), cmd)]


@pytest.mark.parametrize("demand, message", [
    ((NAN, 0.0, 0.0), "thrust must be non-negative, got nan"),
    ((0.01, NAN, 0.0), f"|delta_y| must not exceed {GIMBAL_LIMIT} rad, got nan"),
    ((0.01, 0.0, NAN), f"|delta_p| must not exceed {GIMBAL_LIMIT} rad, got nan"),
], ids=["thrust", "delta_y", "delta_p"])
def test_rigid_plant_clamp_keeps_nan_for_the_command_to_refuse(demand, message):
    assert any(math.isnan(x) for x in _min_max_clamp(*demand))
    with pytest.raises(ValueError) as info:
        _plant_control(*demand)
    assert str(info.value) == message


@pytest.mark.parametrize("model", ["full", "planar"])
def test_a_nan_thrust_demand_fails_at_its_step(model, monkeypatch):
    def law(t, y):
        return NAN if t > 0.0025 else 0.01, 0.1, 0.0

    monkeypatch.setitem(harness.CONTROLLERS, "open_loop", lambda sc: harness._rigid_body_plant(sc, law))
    with pytest.raises(ScenarioError) as info:
        run_scenario(hover_scenario(model=model, duration=0.01))
    assert str(info.value) == "step 3 (t=0.003000 s): thrust must be non-negative, got nan"


def test_a_blown_up_step_names_the_wrench_it_held():
    # A surge of 1e200 overflows the drag in the first RK4 stage: the error names the state components, the
    # thrust wrench (X, Y, Z, L, M, N) held over the step and the state before it, each as its repr.
    sc = hover_scenario(initial=BodyState(u=1e200), duration=0.01, open_loop=OpenLoopCommand(thrust=0.01))
    wrench = ", ".join(map(repr, dynamics.thruster_wrench(sc.params, ThrusterCommand(0.01, 0.0, 0.0))))
    with pytest.raises(ScenarioError) as info:
        run_scenario(sc)
    assert str(info.value) == ("step 0 (t=0.000000 s): non-finite state component(s): u, v, w, p, q, r, x, y, h, "
                               f"phi, theta, psi; input held over the step: ({wrench}); last finite state: (1e+200, "
                               "0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)")


@pytest.mark.parametrize("model", ["full", "planar"])
def test_the_thrust_wrench_is_computed_once_per_step(model, monkeypatch):
    # The command is held over the step, so its wrench is computed by the plant, not in each RK4 stage.
    calls, thruster_wrench = [], dynamics.thruster_wrench

    def counted(params, cmd):
        calls.append(cmd)
        return thruster_wrench(params, cmd)

    monkeypatch.setattr(harness, "thruster_wrench", counted)
    monkeypatch.setattr(dynamics, "thruster_wrench", None)  # a field calling it would fail
    sc = hover_scenario(model=model, duration=0.05, open_loop=OpenLoopCommand(thrust=0.01, delta_y=0.2))
    records = run_scenario(sc).records
    assert len(records) == 51 and len(calls) == 50 + 1  # one per recorded step, the last included
    assert all(cmd.thrust == 0.01 and cmd.yaw_deflection == 0.2 for cmd in calls)


# --- outputs -----------------------------------------------------------------

def test_csv_fixed_columns_and_determinism(tmp_path):
    sc = hover_scenario(duration=0.05, dt=0.01, gimbal_noise=0.01, seed=3)
    result = run_scenario(sc)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(result.records, p1)
    write_records_csv(run_scenario(sc).records, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


LAYOUT_SCENARIOS = {
    "rigid-body": lambda: hover_scenario(duration=0.05, dt=0.01, gimbal_noise=0.05, seed=3),
    # below ground with a tiny thrust limit, so rows carry two flags
    "smc": lambda: hover_scenario(model="planar", controller="smc", initial=BodyState(h=-1.0),
                                  smc=SmcScenarioConfig(**VALID_SMC, t_max=1e-4),
                                  duration=0.05, dt=0.01),
}


@pytest.mark.parametrize("kind", LAYOUT_SCENARIOS)
def test_records_are_the_csv_rows(kind, tmp_path):
    assert SimRecord._fields == CSV_COLUMNS
    result = run_scenario(LAYOUT_SCENARIOS[kind]())
    path = tmp_path / "run.csv"
    write_records_csv(result.records, path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(result.records) == 6
    for row, rec in zip(rows, result.records):
        assert tuple(row) == CSV_COLUMNS
        for name in CSV_COLUMNS[:-1]:
            value = getattr(rec, name)
            assert value is None or type(value) is float, name
            assert row[name] == ("" if value is None else repr(value)), name
        assert row["flags"] == ";".join(rec.flags)
        if kind == "smc":
            assert isinstance(rec.s, np.ndarray) and rec.s.shape == (3,)
            assert rec.s.tolist() == [rec.s_x, rec.s_y, rec.s_psi]
        else:
            assert rec.s is None
    if kind == "smc":
        assert all(row["flags"] == "ground;saturation" for row in rows)
    else:
        assert any(rec.delta_y != 0.0 for rec in result.records)  # the noise is recorded
    states = np.array([[float(row[name]) for name in STATE_LABELS] for row in rows])
    assert np.array_equal(result.states(), states)


WRITER_SCENARIOS = {
    "numpy-script": lambda: hover_scenario(
        open_loop=OpenLoopCommand(script=np.array([[0.0, 0.01, 0.1, 0.0], [0.02, 0.02, -0.2, 0.3]])),
        duration=0.05, dt=0.01),
    "throttle": lambda: hover_scenario(open_loop=OpenLoopCommand(throttle=0.75), duration=0.05, dt=0.01),
    "smc": LAYOUT_SCENARIOS["smc"],
}


@pytest.mark.parametrize("kind", WRITER_SCENARIOS)
def test_csv_writer_matches_stdlib_csv(kind, tmp_path):
    records = run_scenario(WRITER_SCENARIOS[kind]()).records
    if kind == "smc":
        assert all(len(rec.flags) == 2 for rec in records)
    path = tmp_path / "run.csv"
    write_records_csv(records, path)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        # float() so that a numpy scalar in a record, whose repr differs, shows as a mismatch
        cells = ["" if value is None else repr(float(value)) for value in rec[:-1]]
        writer.writerow([*cells, ";".join(rec.flags)])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_summary_format_key_value():
    text = format_summary({"alpha": 1.5, "name": "x", "count": 3})
    assert text == "alpha=1.5\nname=x\ncount=3\n"


SCENARIO_TEXT = """# blimpsim-config v1
[scenario]
model = planar
controller = open_loop
duration = 0.2
dt = 0.01
seed = 1

[params]
mass = 0.2978
drag_coeff = 0.1848

[initial]
u = 0.1
h = 1.8
psi = 0.3

[open_loop]
thrust = 0.0114

[output]
csv = out.csv
summary = out.txt
"""


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "cruise.cfg"
    path.write_text(SCENARIO_TEXT, encoding="utf-8")
    sc = load_scenario(path)
    assert sc.model == "planar"
    assert sc.duration == 0.2
    assert sc.params.drag_coeff == 0.1848
    assert sc.initial.u == 0.1
    assert sc.initial.psi == 0.3
    assert sc.open_loop.thrust == 0.0114
    result = run_scenario(sc)
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out.txt").exists()
    text = (tmp_path / "out.txt").read_text(encoding="utf-8")
    assert f"steps={result.summary['steps']}" in text


def test_load_scenario_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[scenario]\nmodel = planar\n", encoding="utf-8")
    with pytest.raises(ValueError, match="first line"):
        load_scenario(path)


def test_load_scenario_rejects_unknown_params(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG_HEADER + "\n[params]\nmas = 0.3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown"):
        load_scenario(path)


def test_load_scenario_smc_section(tmp_path):
    (tmp_path / "ref.txt").write_text("0.0 0 0 0.5\n10.0 0 0 0.5\n", encoding="utf-8")
    text = (
        CONFIG_HEADER
        + """
[scenario]
controller = smc
duration = 0.2
dt = 0.01

[smc]
c1 = 1.0
c2 = 1.0
epsilon = 0.05
k = 1.0
reference = ref.txt
"""
    )
    path = tmp_path / "smc.cfg"
    path.write_text(text, encoding="utf-8")
    sc = load_scenario(path)
    assert sc.controller == "smc"
    assert sc.smc.gains.k == 1.0
    run_scenario(sc)
