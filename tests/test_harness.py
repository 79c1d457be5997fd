import numpy as np
import pytest

from ionblimp.dynamics import AirshipParams, BodyState, ThrusterCommand
from ionblimp.harness import (
    CONFIG_HEADER,
    CSV_COLUMNS,
    NonFiniteState,
    OpenLoopCommand,
    Scenario,
    ScenarioError,
    ServoCommandMap,
    SmcScenarioConfig,
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
    smap = ServoCommandMap()
    out = servo_map(ThrusterCommand(thrust=0.01), smap)
    assert out.yaw_deg == pytest.approx(90.0)
    assert out.pitch_deg == pytest.approx(90.0)
    assert not out.saturated
    out = servo_map(ThrusterCommand(thrust=0.01, yaw_deflection=np.pi / 2), smap)
    assert out.yaw_deg == pytest.approx(180.0)
    assert not out.saturated


def test_servo_map_clamps_and_flags():
    # bypass the command validator to exercise the clamp path
    cmd = object.__new__(ThrusterCommand)
    object.__setattr__(cmd, "thrust", 0.01)
    object.__setattr__(cmd, "yaw_deflection", 2.0)
    object.__setattr__(cmd, "pitch_deflection", 0.0)
    out = servo_map(cmd, ServoCommandMap())
    assert out.yaw_deg == 180.0
    assert out.saturated


def test_servo_map_slew_limit():
    smap = ServoCommandMap(slew_rate_deg_s=100.0)
    prev = servo_map(ThrusterCommand(thrust=0.01), smap)
    out = servo_map(
        ThrusterCommand(thrust=0.01, yaw_deflection=np.pi / 2), smap, previous=prev, dt=0.1
    )
    assert out.yaw_deg == pytest.approx(100.0)  # 90 + 100 deg/s * 0.1 s
    assert out.saturated


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
    final = result.records[-1].state
    assert np.allclose(final.as_array(), BodyState(h=1.8).as_array(), atol=1e-12)
    assert all(rec.flags == () for rec in result.records)
    assert result.summary["max_speed"] == 0.0


def test_scenario_records_time_grid():
    result = run_scenario(hover_scenario(duration=0.1, dt=0.01))
    t = result.times()
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
    final_u = result.records[-1].state.u
    # feedback pulls u toward the trim speed from above
    assert abs(final_u - 0.3) < 0.05


def test_gimbal_noise_is_seeded_and_bounded():
    sc1 = hover_scenario(gimbal_noise=0.05, seed=5, duration=0.1, dt=0.01)
    sc2 = hover_scenario(gimbal_noise=0.05, seed=5, duration=0.1, dt=0.01)
    r1, r2 = run_scenario(sc1), run_scenario(sc2)
    y1 = [rec.command.yaw_deflection for rec in r1.records]
    y2 = [rec.command.yaw_deflection for rec in r2.records]
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
    assert abs(result.records[-1].state.attitude.psi - 0.5) < 0.01
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


def test_ground_flag_on_every_plant():
    ref = ReferenceTrajectory(times=[0.0, 1.0], poses=[[0, 0, 0.5], [0, 0, 0.5]])
    smc = SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0), reference=ref)
    for controller in ("open_loop", "smc"):
        sc = hover_scenario(model="planar", controller=controller, smc=smc,
                            initial=BodyState(h=-1.0), duration=0.1, dt=0.01)
        result = run_scenario(sc)
        assert all("ground" in rec.flags for rec in result.records)
        assert result.summary["ground_steps"] == 11


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
