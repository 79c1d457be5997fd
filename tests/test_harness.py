import csv
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp.dynamics import GIMBAL_LIMIT, AirshipParams, BodyState, ThrusterCommand
from ionblimp.harness import (
    CONFIG_HEADER,
    CSV_COLUMNS,
    SCENARIO_SCHEMA,
    STATE_LABELS,
    InnerLoopConfig,
    NonFiniteState,
    OpenLoopCommand,
    Scenario,
    ScenarioError,
    SimRecord,
    SmcScenarioConfig,
    _fmt,
    format_summary,
    integrate_step,
    load_scenario,
    run_scenario,
    servo_map,
    write_records_csv,
)
from ionblimp.smc import ReferenceTrajectory, SmcGains


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
        y = integrate_step(lambda s, u: -s, y, None, 0.001)
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
    with pytest.raises(ValueError):
        integrate_step(lambda s, u: s, np.zeros(2), None, 0.0)


def test_rk4_convergence_order_on_exponential():
    def final_error(dt):
        y = np.array([1.0])
        for _ in range(int(round(1.0 / dt))):
            y = integrate_step(lambda s, u: -s, y, None, dt)
        return abs(y[0] - np.exp(-1.0))

    e1, e2 = final_error(0.02), final_error(0.01)
    order = np.log2(e1 / e2)
    assert order >= 3.5


# --- servo mapping -----------------------------------------------------------

def test_servo_map_center_and_range():
    out = servo_map(ThrusterCommand(thrust=0.01))
    assert out.yaw_deg == pytest.approx(90.0)
    assert out.pitch_deg == pytest.approx(90.0)
    assert not out.saturated
    out = servo_map(ThrusterCommand(thrust=0.01, yaw_deflection=np.pi / 2))
    assert out.yaw_deg == pytest.approx(180.0)
    assert not out.saturated


def _unchecked_command(yaw, pitch) -> ThrusterCommand:
    """A command that bypasses the validator, so deflections may exceed the gimbal limit."""
    cmd = object.__new__(ThrusterCommand)
    for name, value in (("thrust", 0.01), ("yaw_deflection", yaw), ("pitch_deflection", pitch)):
        object.__setattr__(cmd, name, value)
    return cmd


def test_servo_map_clamps_and_flags():
    out = servo_map(_unchecked_command(2.0, 0.0))
    assert out.yaw_deg == 180.0
    assert out.saturated


PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
# Inside the gimbal limit, exactly at it, and beyond it (clamped).
DEFLECTIONS = st.floats(-2.0, 2.0) | st.sampled_from([-GIMBAL_LIMIT, GIMBAL_LIMIT])


@PROPERTY
@given(yaw=DEFLECTIONS, pitch=DEFLECTIONS)
def test_servo_map_range_slew_and_saturation_flag(yaw, pitch):
    # The map is fixed (90 deg center, travel equal to the gimbal limit) and
    # has no slew limit: the output depends on the command alone.
    out = servo_map(_unchecked_command(yaw, pitch))
    angles = [out.yaw_deg, out.pitch_deg]
    assert all(0.0 <= angle <= 180.0 for angle in angles)
    requested = [90.0 + math.degrees(d) for d in (yaw, pitch)]
    assert out.saturated == (angles != requested)


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
    ({"throttle": 1.5}, r"^throttle must lie in \[0.0, 1.0\]"),
    ({"throttle": -0.1}, r"^throttle must lie in \[0.0, 1.0\]"),
    ({"script": [[0.0, 0.01, 0.0, 0.0], [0.005, 0.01, 2.0, 0.0]]}, r"^script row at t=0.005: \|delta_y\|"),
    ({"script": [[0.0, -0.01, 0.0, 0.0]]}, "^script row at t=0.0: thrust must be non-negative"),
    ({"script": [[0.0, 0.01, 0.0]]}, r"^script needs rows of .* got shape \(1, 3\)"),
], ids=["thrust", "delta-y", "delta-p", "throttle-high", "throttle-low", "script-delta-y",
        "script-thrust", "script-shape"])
def test_open_loop_command_rejects_out_of_range_values(values, message):
    with pytest.raises(ValueError, match=message):
        OpenLoopCommand(**values)


@pytest.mark.parametrize("t_max", [0.0, -0.01])
def test_smc_config_rejects_non_positive_t_max(t_max):
    with pytest.raises(ValueError, match="t_max must be positive"):
        SmcScenarioConfig(**VALID_SMC, t_max=t_max)


def test_scenario_error_carries_timestep_context():
    from ionblimp.harness import InnerLoopConfig

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
    from ionblimp.harness import InnerLoopConfig

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


@pytest.mark.parametrize("noise", [-0.01, float("nan"), float("inf")])
def test_scenario_rejects_bad_gimbal_noise(noise):
    with pytest.raises(ValueError, match="gimbal_noise"):
        hover_scenario(gimbal_noise=noise)


VALID_GAINS = {"c1": 1.0, "c2": 1.0, "epsilon": 0.05, "k": 1.0}
VALID_INNER = {"trim_speed": 0.3, "trim_thrust": 0.01, "k_u": 0.5}
VALID_SMC = {
    "gains": SmcGains(**VALID_GAINS),
    "reference": ReferenceTrajectory(times=[0.0, 1.0], poses=[[0, 0, 0], [0, 0, 0.5]]),
}
NUMERIC_FIELDS = (
    [(SmcGains, VALID_GAINS, name) for name in ("c1", "c2", "epsilon", "k", "boundary_layer")]
    + [(InnerLoopConfig, VALID_INNER, name)
       for name in ("trim_speed", "trim_thrust", "k_u", "k_w", "k1", "k2")]
    + [(OpenLoopCommand, {}, name) for name in ("thrust", "throttle", "delta_y", "delta_p", "script")]
    + [(SmcScenarioConfig, VALID_SMC, name)
       for name in ("t_max", "added_mass_x", "added_mass_y", "added_inertia_z", "cg_x", "cg_y")]
)


@pytest.mark.parametrize("cls, valid, name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in NUMERIC_FIELDS])
def test_config_dataclasses_reject_non_finite(cls, valid, name):
    cls(**valid)  # the valid base builds
    for bad in (float("nan"), float("inf"), float("-inf")):
        value = np.array([[0.0, bad, 0.0, 0.0]]) if name == "script" else bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{**valid, name: value})


def test_ground_flag_on_every_plant():
    ref = ReferenceTrajectory(times=[0.0, 1.0], poses=[[0, 0, 0.5], [0, 0, 0.5]])
    smc = SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0), reference=ref)
    for controller in ("open_loop", "smc"):
        sc = hover_scenario(model="planar", controller=controller, smc=smc,
                            initial=BodyState(h=-1.0), duration=0.1, dt=0.01)
        result = run_scenario(sc)
        assert all("ground" in rec.flags for rec in result.records)
        assert result.summary["ground_steps"] == 11


def test_scenario_fields_are_what_a_scenario_file_sets():
    # Every Scenario field comes from a [scenario] key, a section built into
    # a config object, or an [output] path: none is settable only from Python.
    sections = ("params", "initial", "open_loop", "inner_loop", "smc")
    expected = {*SCENARIO_SCHEMA["scenario"], *sections, "csv_path", "summary_path"}
    assert {f.name for f in fields(Scenario)} == expected


def test_scenario_rejects_duration_off_the_step_grid():
    with pytest.raises(ValueError, match="whole number"):
        hover_scenario(duration=0.025, dt=0.01)
    # 0.03 / 0.01 is 2.9999999999999996 in floating point: still three steps
    assert len(run_scenario(hover_scenario(duration=0.03, dt=0.01)).records) == 4


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
            assert row[name] == ("" if value is None else _fmt(value)), name
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
    assert sc.initial.attitude.psi == pytest.approx(0.3)
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
