import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp.dynamics import BodyState
from ionblimp.frames import (
    FlowAngles,
    StagnantFlow,
    V_EPS,
    airflow_to_body,
    euler_rates_from_body_rates,
    flow_angles_from_velocity,
    ground_to_body,
    wrap_angle,
)


def body_rates_from_euler_rates(att: BodyState, euler_rates) -> np.ndarray:
    """Map attitude-angle rates (phi_dot, theta_dot, psi_dot) to body rates (p, q, r)."""
    phid, thd, psid = np.asarray(euler_rates, dtype=float)
    cphi, sphi = np.cos(att.phi), np.sin(att.phi)
    cth, sth = np.cos(att.theta), np.sin(att.theta)
    return np.array(
        [
            phid - psid * sth,
            thd * cphi + psid * cth * sphi,
            -thd * sphi + psid * cth * cphi,
        ]
    )


def velocity_from_flow_angles(speed: float, flow: FlowAngles) -> np.ndarray:
    """Rebuild the body-frame velocity from airspeed and flow angles."""
    ca, sa = np.cos(flow.alpha), np.sin(flow.alpha)
    cb, sb = np.cos(flow.beta), np.sin(flow.beta)
    return speed * np.array([ca * cb, sb, sa * cb])


def is_rotation_matrix(mat: np.ndarray, tol: float = 1e-12) -> bool:
    """True when mat is orthonormal with determinant +1 within tol."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        return False
    ortho = np.max(np.abs(mat.T @ mat - np.eye(3)))
    return bool(ortho <= tol and abs(np.linalg.det(mat) - 1.0) <= tol)


def test_wrap_angle_boundaries():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == 0.3


PROPERTY = settings(derandomize=True, database=None, max_examples=500, deadline=None)
# (-pi, pi] with both ends, the float just above -pi and magnitudes down to the smallest subnormal.
IN_RANGE = (st.floats(-math.pi, math.pi, exclude_min=True)
            | st.sampled_from([math.pi, math.nextafter(-math.pi, 0.0), 1e-300, -1e-300, 5e-324, 1e-17, 1e-12]))


@PROPERTY
@given(x=IN_RANGE)
def test_wrap_angle_keeps_an_angle_in_range_exactly(x):
    assert wrap_angle(x) == x
    att = BodyState(phi=x, theta=x, psi=x)
    assert (att.phi, att.theta, att.psi) == (x, x, x)


@PROPERTY
@given(x=st.floats(-1e4, 1e4) | st.floats(allow_nan=False, allow_infinity=False))
def test_wrap_angle_lands_in_range_at_the_same_point(x):
    wrapped = wrap_angle(x)
    assert -math.pi < wrapped <= math.pi
    # Each turn removed is the float 2*pi, off by 2.4e-16; past 1e4 rad that adds up to 1e-12.
    if abs(x) <= 1e4:
        assert abs(math.sin(wrapped) - math.sin(x)) <= 1e-12
        assert abs(math.cos(wrapped) - math.cos(x)) <= 1e-12


def test_wrap_angle_keeps_nan_and_rejects_infinity():
    assert math.isnan(wrap_angle(math.nan))
    for x in (math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap_angle(x)


def test_angle_difference_shortest_path():
    # The yaw tracking error wraps the difference a - b (smc.TrackingError.from_pose).
    assert wrap_angle(3.0 - -3.0) == pytest.approx(6.0 - 2 * np.pi)
    assert wrap_angle(-3.0 - 3.0) == pytest.approx(2 * np.pi - 6.0)
    assert wrap_angle(0.2 - 0.5) == pytest.approx(-0.3)


def test_attitude_angles_wrap_on_construction():
    att = BodyState(phi=3 * np.pi, theta=-3 * np.pi / 2, psi=2 * np.pi)
    assert att.phi == pytest.approx(np.pi)
    assert att.theta == pytest.approx(np.pi / 2)
    assert att.psi == pytest.approx(0.0)


def test_ground_to_body_identity():
    assert np.allclose(ground_to_body(BodyState()), np.eye(3), atol=1e-15)


def test_ground_to_body_pure_yaw_90():
    # Frozen elementwise from the yaw factor alone: ground x maps to body -y.
    r = ground_to_body(BodyState(psi=np.pi / 2))
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(r, expected, atol=1e-15)
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-15)


def test_ground_to_body_level_matches_planar_yaw_matrix():
    # At phi = theta = 0 the full sequence must collapse to the pure-yaw matrix.
    for psi in np.linspace(-np.pi, np.pi, 17):
        c, s = np.cos(psi), np.sin(psi)
        expected = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(ground_to_body(BodyState(psi=psi)), expected, atol=1e-15)


def test_rotation_group_property_random_attitudes():
    rng = np.random.default_rng(1)
    for _ in range(200):
        phi, theta, psi = rng.uniform(-np.pi, np.pi, 3)
        att = BodyState(phi=phi, theta=theta, psi=psi)
        assert is_rotation_matrix(ground_to_body(att), tol=1e-12)


def test_airflow_to_body_identity_and_round_trip():
    assert np.allclose(airflow_to_body(FlowAngles()), np.eye(3), atol=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(100):
        flow = FlowAngles(*rng.uniform(-1.4, 1.4, 2))
        r = airflow_to_body(flow)
        assert is_rotation_matrix(r, tol=1e-12)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)


def test_airflow_to_body_pure_pitch():
    a = 0.1
    r = airflow_to_body(FlowAngles(alpha=a))
    expected = np.array(
        [[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]]
    )
    assert np.allclose(r, expected, atol=1e-15)


def test_body_rates_level_cases():
    level = BodyState()
    assert np.allclose(body_rates_from_euler_rates(level, [0.0, 0.0, 0.7]), [0.0, 0.0, 0.7])
    assert np.allclose(body_rates_from_euler_rates(level, [0.3, 0.0, 0.0]), [0.3, 0.0, 0.0])


def test_body_rates_match_kinematic_matrix():
    # Independent oracle: build the Euler-rate kinematic matrix explicitly.
    rng = np.random.default_rng(3)
    for _ in range(100):
        att = BodyState(phi=rng.uniform(-1.2, 1.2), theta=rng.uniform(-1.2, 1.2), psi=rng.uniform(-3, 3))
        rates = rng.uniform(-2, 2, 3)
        cphi, sphi = np.cos(att.phi), np.sin(att.phi)
        cth, sth = np.cos(att.theta), np.sin(att.theta)
        w_mat = np.array(
            [[1.0, 0.0, -sth], [0.0, cphi, cth * sphi], [0.0, -sphi, cth * cphi]]
        )
        assert np.allclose(body_rates_from_euler_rates(att, rates), w_mat @ rates, atol=1e-13)


def test_euler_rate_inversion_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        att = BodyState(phi=rng.uniform(-1.2, 1.2), theta=rng.uniform(-1.2, 1.2), psi=rng.uniform(-3, 3))
        rates = rng.uniform(-2, 2, 3)
        pqr = body_rates_from_euler_rates(att, rates)
        assert np.allclose(euler_rates_from_body_rates(att, pqr), rates, atol=1e-12)


def test_flow_angles_straight_flight():
    flow = flow_angles_from_velocity([1.0, 0.0, 0.0])
    assert flow.alpha == pytest.approx(0.0)
    assert flow.beta == pytest.approx(0.0)


def test_flow_angles_vertical_flow_saturates_at_boundary():
    flow = flow_angles_from_velocity([0.0, 0.0, 1.0])
    assert flow.alpha == pytest.approx(np.pi / 2)
    assert abs(flow.alpha) < np.pi / 2  # stays strictly inside the open interval


def test_flow_angles_generic_point():
    flow = flow_angles_from_velocity([1.0, 0.1, 0.1])
    assert flow.alpha == pytest.approx(np.arctan2(0.1, 1.0), abs=1e-15)
    assert flow.beta == pytest.approx(np.arcsin(0.1 / np.sqrt(1.02)), abs=1e-15)


def test_flow_angles_stagnant_raises():
    with pytest.raises(StagnantFlow):
        flow_angles_from_velocity([0.0, 0.0, 0.0])
    with pytest.raises(StagnantFlow):
        flow_angles_from_velocity([V_EPS / 2, 0.0, 0.0])


def test_flow_angle_velocity_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = rng.uniform(0.1, 2.0)
        v = rng.uniform(-0.7, 0.7) * u
        w = rng.uniform(-0.7, 0.7) * u
        vel = np.array([u, v, w])
        flow = flow_angles_from_velocity(vel)
        rebuilt = velocity_from_flow_angles(float(np.linalg.norm(vel)), flow)
        assert np.allclose(rebuilt, vel, atol=1e-10)


def test_flow_angles_type_rejects_out_of_range():
    with pytest.raises(ValueError):
        FlowAngles(alpha=np.pi / 2)
    with pytest.raises(ValueError):
        FlowAngles(beta=-np.pi / 2)


def test_is_rotation_matrix_rejects_non_rotations():
    assert not is_rotation_matrix(np.eye(3) * 2.0)
    assert not is_rotation_matrix(np.diag([1.0, 1.0, -1.0]))  # det -1
    assert not is_rotation_matrix(np.eye(2))
