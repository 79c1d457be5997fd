import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ionblimp.dynamics import GIMBAL_LIMIT
from ionblimp.harness import CONFIG_HEADER, load_scenario
from ionblimp.smc import (
    ReferenceTrajectory,
    SmcGains,
    SmcModel,
    TrackingError,
    _sgn,
    allocate_actuation,
    lyapunov_monitor,
    pose_acceleration,
    reaching_time_bound,
    sliding_surface,
    smc_control,
)

GAINS = SmcGains(c1=1.0, c2=0.5, epsilon=0.1, k=1.0)


def reaching_law(gains: SmcGains, s) -> np.ndarray:
    """Target sliding-variable rate: -eps*sgn(s) - k*s, with sgn(0) = 0."""
    s = np.asarray(s, dtype=float)
    sgn = np.vectorize(_sgn, otypes=[float])(s, gains.boundary_layer)
    return -gains.epsilon * sgn - gains.k * s


# --- surface / reaching law / monitor ----------------------------------------

def test_sliding_surface_zero_error():
    err = TrackingError(error=np.zeros(3), error_rate=np.zeros(3))
    assert np.allclose(sliding_surface(GAINS, err), 0.0)


def test_sliding_surface_cancellation():
    err = TrackingError(error=[1.0, 0.0, 0.0], error_rate=[-2.0, 0.0, 0.0])
    assert np.allclose(sliding_surface(GAINS, err), 0.0)  # 1*1 + 0.5*(-2) = 0


def test_sliding_surface_linearity():
    rng = np.random.default_rng(12)
    e, ed = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
    s1 = np.asarray(sliding_surface(GAINS, TrackingError(e, ed)))
    s2 = sliding_surface(GAINS, TrackingError(2 * e, 2 * ed))
    assert np.allclose(s2, 2 * s1, rtol=1e-14)


def test_reaching_law_values():
    assert np.allclose(reaching_law(GAINS, [0.0, 0.0, 0.0]), 0.0)  # sgn(0) = 0
    assert reaching_law(GAINS, [0.5, 0.0, 0.0])[0] == pytest.approx(-0.6)
    s = np.array([0.3, -0.2, 0.7])
    assert np.allclose(reaching_law(GAINS, -s), -reaching_law(GAINS, s), rtol=1e-14)


def test_reaching_law_boundary_layer_smoothing():
    smooth = SmcGains(c1=1.0, c2=0.5, epsilon=0.1, k=1.0, boundary_layer=0.01)
    hard = reaching_law(GAINS, [1e-4, 0, 0])[0]
    soft = reaching_law(smooth, [1e-4, 0, 0])[0]
    assert abs(soft) < abs(hard)  # smoothing shrinks the switching term near s = 0


def test_lyapunov_monitor_values():
    v, v_dot = lyapunov_monitor(GAINS, [0.0, 0.0, 0.0])
    assert np.allclose(v, 0.0) and np.allclose(v_dot, 0.0)
    v, v_dot = lyapunov_monitor(GAINS, [0.5, 0.0, 0.0])
    assert v[0] == pytest.approx(0.125)
    assert v_dot[0] == pytest.approx(-0.30)


def test_lyapunov_monitor_strictly_decreasing_off_surface():
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = rng.normal(0, 1, 3)
        _, v_dot = lyapunov_monitor(GAINS, s)
        assert np.all(np.asarray(v_dot)[s != 0.0] < 0.0)


def test_smc_gains_validation():
    with pytest.raises(ValueError):
        SmcGains(c1=1.0, c2=0.0, epsilon=0.1, k=1.0)
    with pytest.raises(ValueError):
        SmcGains(c1=1.0, c2=1.0, epsilon=-0.1, k=1.0)
    with pytest.raises(ValueError):
        SmcGains(c1=1.0, c2=1.0, epsilon=0.1, k=0.0)


@pytest.mark.parametrize("c2", [1e-310, -1e-310, 5e-324, 0.0, -0.0])
def test_smc_gains_refuse_a_c2_whose_reciprocal_overflows(c2):
    # smc_control's gain -(1 / c2) would be inf, and the first demand nan; at c2 = 0 the division fails outright.
    with pytest.raises(ValueError, match=rf"^c2 must have a finite reciprocal 1 / c2, got {c2!r}$"):
        SmcGains(c1=1.0, c2=c2, epsilon=0.1, k=1.0)


@pytest.mark.parametrize("c2", [1e-300, -1e-300, 1e-308])
def test_smc_gains_take_a_tiny_c2_with_a_finite_reciprocal(c2):
    assert SmcGains(c1=1.0, c2=c2, epsilon=0.1, k=1.0).c2 == c2


# --- control law -------------------------------------------------------------

def test_control_zero_on_trajectory_at_rest():
    model = SmcModel.from_components(mass=0.3, inertia_z=0.06)
    err = TrackingError(np.zeros(3), np.zeros(3))
    u = smc_control(model, GAINS, sliding_surface(GAINS, err), err.error_rate, np.zeros(3), 0.4)
    assert np.allclose(u, 0.0, atol=1e-15)


def test_control_identity_reduction():
    # At psi = 0 and at rest (identity transform, zero rate), with unit mass
    # matrix and no aero the law must collapse to
    # -(1/c2)(eps sgn(s) + k s + c1 e_dot) channel by channel.
    model = SmcModel(mass_matrix=np.eye(3), aero_matrix=np.zeros((3, 3)))
    err = TrackingError(error=[0.0, 0.0, 0.4], error_rate=[0.0, 0.0, -0.1])
    s = np.asarray(sliding_surface(GAINS, err))
    u = smc_control(model, GAINS, s, err.error_rate, np.zeros(3), 0.0)
    expected = -(1.0 / GAINS.c2) * (
        GAINS.epsilon * np.sign(s) + GAINS.k * s + GAINS.c1 * np.asarray(err.error_rate)
    )
    assert np.allclose(u, expected, rtol=1e-14)
    assert u[0] == u[1] == 0.0


def test_control_realizes_reaching_law_in_closed_form():
    # Algebraic round trip: feed U back through the plant dynamics and check
    # s_dot = c1 e_dot + c2 eta_ddot lands exactly on the reaching law.
    rng = np.random.default_rng(14)
    for _ in range(50):
        model = SmcModel.from_components(
            mass=rng.uniform(0.1, 1.0), inertia_z=rng.uniform(0.01, 0.5),
            added_mass_x=rng.uniform(0, 0.2), added_mass_y=rng.uniform(0, 0.2),
            added_inertia_z=rng.uniform(0, 0.1),
            cg_x=rng.uniform(-0.05, 0.05), cg_y=rng.uniform(-0.05, 0.05),
            aero_matrix=rng.normal(0, 0.1, (3, 3)),
        )
        gains = SmcGains(
            c1=rng.uniform(0.5, 2), c2=rng.uniform(0.5, 2),
            epsilon=rng.uniform(0, 0.2), k=rng.uniform(0.2, 2),
        )
        psi = rng.uniform(-3, 3)
        eta_dot = rng.normal(0, 0.5, 3)
        err = TrackingError(error=rng.normal(0, 0.5, 3), error_rate=eta_dot - rng.normal(0, 0.5, 3))
        u = smc_control(model, gains, sliding_surface(gains, err), err.error_rate, eta_dot, psi)
        eta_ddot = pose_acceleration(model, u, eta_dot, psi)
        s_dot = gains.c1 * np.asarray(err.error_rate) + gains.c2 * np.asarray(eta_ddot)
        assert np.allclose(s_dot, reaching_law(gains, sliding_surface(gains, err)), atol=1e-8)


def test_reaching_law_integration_respects_time_bound():
    # Scalar ODE oracle, independent of reaching_law: integrate
    # s_dot = -eps sgn(s) - k s with plain floats and check |s| crosses
    # 1e-6 no later than the analytic bound. dt is small enough that the
    # eps*dt overshoot at the surface stays below the threshold.
    eps, k = 0.05, 0.8
    gains = SmcGains(c1=1.0, c2=1.0, epsilon=eps, k=k)
    for s0 in (0.5, -0.3, 2.0):
        bound = reaching_time_bound(gains, s0)
        s, t, dt = s0, 0.0, 1e-5
        while abs(s) >= 1e-6 and t < 2.0 * bound + 1.0:
            sign = 1.0 if s > 0.0 else (-1.0 if s < 0.0 else 0.0)
            s += dt * (-eps * sign - k * s)
            t += dt
        assert abs(s) < 1e-6
        assert t <= bound + 0.01


def test_reaching_time_bound_infinite_without_switching_term():
    gains = SmcGains(c1=1.0, c2=1.0, epsilon=0.0, k=1.0)
    assert reaching_time_bound(gains, 1.0) == np.inf


# --- mass matrix construction -------------------------------------------------

def test_symmetric_mass_matrix_default():
    model = SmcModel.from_components(
        mass=0.3, inertia_z=0.06, added_mass_x=0.02, added_mass_y=0.05,
        added_inertia_z=0.01, cg_x=0.03, cg_y=-0.02,
    )
    m = np.array(model.mass_matrix)
    assert np.allclose(m, m.T)
    assert np.all(np.linalg.eigvalsh(m) > 0)
    assert m[0, 0] == pytest.approx(0.32)
    assert m[1, 2] == pytest.approx(0.3 * 0.03)


# --- allocation ----------------------------------------------------------------

def test_allocation_forward_thrust():
    cmd, residual = allocate_actuation([0.01, 0.0, 0.0], t_max=0.051)
    assert cmd.thrust == pytest.approx(0.01)
    assert cmd.yaw_deflection == 0.0
    assert np.allclose(residual, 0.0, atol=1e-15)


def test_allocation_side_force_hits_gimbal_limit():
    # A backward force points atan2 beyond +-pi/2: the yaw clamps to the gimbal limit.
    for fy, limit in ((0.01, GIMBAL_LIMIT), (-0.01, -GIMBAL_LIMIT)):
        cmd, residual = allocate_actuation([-0.02, fy, 0.0], t_max=0.051, mount_arm_x=0.3)
        assert cmd.yaw_deflection == limit
        assert cmd.thrust == pytest.approx(np.hypot(0.02, 0.01))
        realized_y = cmd.thrust * np.sin(limit)
        assert residual[0] == pytest.approx(-0.02 - cmd.thrust * np.cos(limit), abs=1e-15)
        assert residual[1] == pytest.approx(fy - realized_y)
        assert residual[2] == pytest.approx(-0.3 * realized_y)


def test_allocation_thrust_saturation():
    cmd, residual = allocate_actuation([0.1, 0.0, 0.0], t_max=0.051)
    assert cmd.thrust == pytest.approx(0.051)
    assert residual[0] == pytest.approx(0.049)


ALLOCATION = settings(derandomize=True, database=None, max_examples=300, deadline=None)
BUDGETS = st.floats(1e-3, 0.2)
ARMS = st.floats(-0.5, 0.5)


@ALLOCATION
@given(t_max=BUDGETS, mount_arm_x=ARMS, demand=st.tuples(*[st.floats(-0.3, 0.3)] * 3))
def test_allocation_residual_reconstruction_exact(t_max, mount_arm_x, demand):
    # Saturated or not: the force residual is what the thruster leaves unmet, and the
    # moment residual is N_z minus the moment of the realized lateral force on the mount arm.
    fx, fy, nz = demand
    cmd, residual = allocate_actuation(demand, t_max=t_max, mount_arm_x=mount_arm_x)
    realized_x = cmd.thrust * math.cos(cmd.yaw_deflection)
    realized_y = cmd.thrust * math.sin(cmd.yaw_deflection)
    assert residual[2] == nz - mount_arm_x * realized_y
    assert realized_x + residual[0] == pytest.approx(fx, rel=0.0, abs=1e-15)
    assert realized_y + residual[1] == pytest.approx(fy, rel=0.0, abs=1e-15)


@ALLOCATION
@given(t_max=BUDGETS, mount_arm_x=ARMS, a=st.floats(0.0, 1.0), b=st.floats(-1.0, 1.0),
       nz=st.floats(-0.3, 0.3))
def test_allocation_force_residual_zero_within_budget(t_max, mount_arm_x, a, b, nz):
    # |F_xy| <= t_max with F_x >= 0: neither the thrust nor the gimbal clamps, so the force is met.
    fx, fy = a * t_max, b * t_max
    assume(math.hypot(fx, fy) <= t_max)
    _, residual = allocate_actuation((fx, fy, nz), t_max=t_max, mount_arm_x=mount_arm_x)
    assert abs(residual[0]) <= 2 * math.ulp(t_max)
    assert abs(residual[1]) <= 2 * math.ulp(t_max)


def test_allocation_requires_positive_thrust_budget():
    with pytest.raises(ValueError):
        allocate_actuation([0.01, 0.0, 0.0], t_max=0.0)


def test_allocation_refuses_a_nan_thrust_budget():
    # min(requested, nan) is requested: a nan budget would otherwise lift the thrust limit.
    with pytest.raises(ValueError, match="^t_max must be positive$"):
        allocate_actuation([0.01, 0.0, 0.0], t_max=float("nan"))


@pytest.mark.parametrize("u", [(np.nan, 0.0, 0.0), (0.0, np.nan, 0.0)])
def test_allocation_refuses_a_nan_force_demand(u):
    # A nan demand would otherwise become a nan-thrust command and a nan servo angle; the error names the demand.
    with pytest.raises(ValueError) as info:
        allocate_actuation(u, t_max=0.05)
    assert str(info.value) == f"force demand (F_x, F_y, N_z) must be finite, got {tuple(map(float, u))!r}"


@pytest.mark.parametrize("u, shown", [
    ((math.inf, 0.0, 0.0), "(inf, 0.0, 0.0)"),
    ((0.0, -math.inf, 0.0), "(0.0, -inf, 0.0)"),
    ((0.01, 0.0, math.inf), "(0.01, 0.0, inf)"),  # N_z alone would only show in the residual
    ((0.0, 0.0, math.nan), "(0.0, 0.0, nan)"),
])
def test_allocation_refuses_a_non_finite_force_demand_naming_it(u, shown):
    with pytest.raises(ValueError) as info:
        allocate_actuation(u, t_max=0.05, mount_arm_x=0.3)
    assert str(info.value) == f"force demand (F_x, F_y, N_z) must be finite, got {shown}"


# --- tracking error / reference ---------------------------------------------

def test_tracking_error_wraps_yaw():
    err = TrackingError.from_pose([0, 0, 3.0], [0, 0, 0], [0, 0, -3.0], [0, 0, 0])
    assert err.error[2] == pytest.approx(6.0 - 2 * np.pi)


def test_reference_trajectory_interpolation():
    ref = ReferenceTrajectory(times=[0.0, 2.0, 4.0], poses=[[0, 0, 0], [2, 0, 0.4], [2, 2, 0.4]])
    pose, rate = ref.sample(1.0)
    assert np.allclose(pose, [1.0, 0.0, 0.2])
    assert np.allclose(rate, [1.0, 0.0, 0.2])
    pose, rate = ref.sample(3.0)
    assert np.allclose(pose, [2.0, 1.0, 0.4])
    assert np.allclose(rate, [0.0, 1.0, 0.0])


def test_reference_trajectory_clamps_and_freezes_beyond_end():
    ref = ReferenceTrajectory(times=[0.0, 1.0], poses=[[0, 0, 0], [1, 0, 0]])
    pose, rate = ref.sample(5.0)
    assert np.allclose(pose, [1.0, 0.0, 0.0])
    assert np.allclose(rate, 0.0)


def test_reference_trajectory_holds_first_pose_at_zero_rate_before_start():
    ref = ReferenceTrajectory(times=[1.0, 2.0], poses=[[0, 0, 0], [1, 0, 0]])
    assert ref.sample(0.0) == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert ref.sample(1.0) == ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))  # the first segment starts at its time


def test_reference_trajectory_unwraps_yaw_column():
    ref = ReferenceTrajectory(times=[0.0, 1.0], poses=[[0, 0, 3.1], [0, 0, -3.1]])
    pose, _ = ref.sample(0.5)
    # interpolating through pi, not back through zero
    assert pose[2] == pytest.approx(np.pi, abs=0.05)


@pytest.mark.parametrize("times, poses, name", [
    ([0.0, np.nan], [[0, 0, 0], [1, 0, 0]], "times"),
    ([0.0, np.inf], [[0, 0, 0], [1, 0, 0]], "times"),
    ([0.0, 1.0], [[0, 0, 0], [np.nan, 0, 0]], "poses"),
    ([0.0, 1.0], [[0, 0, -np.inf], [0, 0, 0]], "poses"),
])
def test_reference_trajectory_rejects_non_finite(times, poses, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ReferenceTrajectory(times=times, poses=poses)


@pytest.mark.parametrize("times, poses, got", [
    (((0.0,), (1.0, 2.0)), ((0, 0, 0), (1, 0, 0)), "(2,) and (2, 3)"),
    ((0.0, (1.0,)), ((0, 0, 0), (1, 0, 0)), "(2,) and (2, 3)"),
    (((0.0,), (1.0,)), ((0, 0, 0), (1, 0, 0)), "(2, 1) and (2, 3)"),
    (1.0, ((0, 0, 0),), "() and (1, 3)"),
    ((0.0, 1.0), ((0, 0, 0), (1, 0)), "(2,) and (2,)"),
], ids=["ragged-times", "mixed-times", "column-times", "scalar-time", "ragged-poses"])
def test_reference_trajectory_refuses_times_that_are_not_one_number_per_pose(times, poses, got):
    # table_shape reads rows of unequal shapes as (n,), so ragged times pass a shape test alone.
    with pytest.raises(ValueError, match=re.escape(f"need times (n,) and poses (n, 3) of x, y, psi, got {got}")):
        ReferenceTrajectory(times=times, poses=poses)


@pytest.mark.parametrize("times, poses, t0, t1", [
    ([0.0, 1e-320], [[0, 0, 0], [1, 0, 0]], "0.0", "1e-320"),
    ([0.0, 1.0, 1.0 + 2e-16], [[0, 0, 0], [0, 0, 0], [0, 1e300, 0]], "1.0", "1.0000000000000002"),
], ids=["subnormal-dt", "overflowing-y-rate"])
def test_reference_trajectory_refuses_a_non_finite_slope(times, poses, t0, t1):
    with pytest.raises(ValueError, match=f"^pose slope from t={re.escape(t0)} to t={re.escape(t1)} is not finite$"):
        ReferenceTrajectory(times=times, poses=poses)


def test_reference_trajectory_refuses_knots_whose_spacing_overflows():
    # t1 - t0 is inf here, so the slope would read 0 and sample(0.0) the first pose, not the midpoint.
    with pytest.raises(ValueError, match=r"^knot spacing from t=-1e\+308 to t=1e\+308 is not finite$"):
        ReferenceTrajectory(times=[-1e308, 1e308], poses=[[0, 0, 0], [1, 0, 0]])
    ref = ReferenceTrajectory(times=[-1e307, 1e307], poses=[[0, 0, 0], [1, 0, 0]])
    assert ref.sample(0.0)[0] == (0.5, 0.0, 0.0)


# Samples at and beyond the table's ends, held at zero rate, pinned as reprs so that the bits and nan are compared.
HELD = ReferenceTrajectory(times=(0.5, 1.25, 3.0), poses=((0.1, -0.2, 0.3), (0.7, 0.4, -2.9), (1.3, -1.1, 3.1)))
HELD_SAMPLES = {
    -0.5: "((0.1, -0.2, 0.3), (0.0, 0.0, 0.0))",
    3.0: "((1.3, -1.1, 3.1), (0.0, 0.0, 0.0))",
    4.0: "((1.3, -1.1, 3.1), (0.0, 0.0, 0.0))",
    math.inf: "((1.3, -1.1, 3.1), (0.0, 0.0, 0.0))",
    -math.inf: "((0.1, -0.2, 0.3), (0.0, 0.0, 0.0))",
    math.nan: "((nan, nan, nan), (0.0, 0.0, 0.0))",
}


@pytest.mark.parametrize("t", HELD_SAMPLES, ids=repr)
def test_reference_trajectory_holds_its_end_poses(t):
    assert repr(HELD.sample(t)) == HELD_SAMPLES[t]


def _loaded_reference(path):
    """The reference load_scenario builds from the table file at path, named by a minimal [smc] section."""
    cfg = path.with_name("smc.cfg")
    cfg.write_text(f"{CONFIG_HEADER}\n[scenario]\ncontroller = smc\n[smc]\nc1 = 1.0\nc2 = 1.0\nepsilon = 0.05\n"
                   f"k = 1.0\nreference = {path.name}\n", encoding="utf-8")
    return load_scenario(cfg).smc.reference


def test_reference_trajectory_file_error_names_the_file(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_text("0.0 0.0 0.0 0.0\n10.0 nan 0.0 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="ref.txt: poses must be finite"):
        _loaded_reference(path)


def test_reference_trajectory_file_load(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_text("# t x y psi\n0.0 0.0 0.0 0.0\n10.0 1.0 0.0 0.5\n", encoding="utf-8")
    ref = _loaded_reference(path)
    pose, rate = ref.sample(5.0)
    assert np.allclose(pose, [0.5, 0.0, 0.25])
    assert np.allclose(rate, [0.1, 0.0, 0.05])
