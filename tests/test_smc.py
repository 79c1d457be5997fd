import numpy as np
import pytest

from ionblimp.dynamics import GIMBAL_LIMIT
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
    s1 = sliding_surface(GAINS, TrackingError(e, ed))
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


# --- control law -------------------------------------------------------------

def test_control_zero_on_trajectory_at_rest():
    model = SmcModel.from_components(mass=0.3, inertia_z=0.06)
    err = TrackingError(np.zeros(3), np.zeros(3))
    u = smc_control(model, GAINS, err, np.zeros(3), 0.4)
    assert np.allclose(u, 0.0, atol=1e-15)


def test_control_identity_reduction():
    # At psi = 0 and at rest (identity transform, zero rate), with unit mass
    # matrix and no aero the law must collapse to
    # -(1/c2)(eps sgn(s) + k s + c1 e_dot) channel by channel.
    model = SmcModel(mass_matrix=np.eye(3), aero_matrix=np.zeros((3, 3)))
    err = TrackingError(error=[0.0, 0.0, 0.4], error_rate=[0.0, 0.0, -0.1])
    s = sliding_surface(GAINS, err)
    u = smc_control(model, GAINS, err, np.zeros(3), 0.0)
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
        u = smc_control(model, gains, err, eta_dot, psi)
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
    m = model.mass_matrix
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


def test_allocation_residual_reconstruction_exact():
    rng = np.random.default_rng(15)
    for _ in range(200):
        u = rng.normal(0, 0.05, 3)
        cmd, residual = allocate_actuation(u, t_max=0.051, mount_arm_x=0.3)
        fx = cmd.thrust * np.cos(cmd.yaw_deflection)
        fy = cmd.thrust * np.sin(cmd.yaw_deflection)
        assert fx + residual[0] == pytest.approx(u[0], abs=1e-15)
        assert fy + residual[1] == pytest.approx(u[1], abs=1e-15)
        assert residual[2] == pytest.approx(u[2] - 0.3 * fy, abs=1e-15)


def test_allocation_requires_positive_thrust_budget():
    with pytest.raises(ValueError):
        allocate_actuation([0.01, 0.0, 0.0], t_max=0.0)


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


def test_reference_trajectory_file_error_names_the_file(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_text("0.0 0.0 0.0 0.0\n10.0 nan 0.0 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="ref.txt: poses must be finite"):
        ReferenceTrajectory.from_file(path)


def test_reference_trajectory_file_load(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_text("# t x y psi\n0.0 0.0 0.0 0.0\n10.0 1.0 0.0 0.5\n", encoding="utf-8")
    ref = ReferenceTrajectory.from_file(path)
    pose, rate = ref.sample(5.0)
    assert np.allclose(pose, [0.5, 0.0, 0.25])
    assert np.allclose(rate, [0.1, 0.0, 0.05])
