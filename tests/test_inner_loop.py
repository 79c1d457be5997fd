import math

import numpy as np
import pytest
import scipy.linalg

from ionblimp.dynamics import AirshipParams
from ionblimp.inner_loop import (
    FirstOrderTf,
    InnerLoopConfig,
    SingularLyapunov,
    U_CHANNEL_GAIN,
    U_CHANNEL_POLE,
    close_u_loop,
    closed_loop_vr,
    design_ku_unity_dc,
    gain_report,
    kw_lower_bound,
    linearize,
    lyapunov_certify,
    search_stabilizing_gains,
    step_response,
)

BENCH = AirshipParams(lift_slope=0.2, moment_slope=0.05)


# --- linearize -------------------------------------------------------------

def test_linearize_surge_entries_bench_numbers():
    model = linearize(AirshipParams(), 1.0, 0.05)
    assert model.b[0, 0] == pytest.approx(1.0 / 0.2978, rel=1e-12)
    assert model.b[0, 0] == pytest.approx(3.3580, rel=1e-4)
    assert model.a[0, 0] == pytest.approx(-0.028729012760241774, rel=1e-12)


def test_fitted_pole_is_about_twice_the_drag_entry():
    # The fitted reference-plant pole and the drag-derived entry disagree by
    # a factor of two; both are exposed, neither is adjusted to the other.
    model = linearize(AirshipParams(), 1.0, 0.05)
    ratio = U_CHANNEL_POLE / (-model.a[0, 0])
    assert 1.9 < ratio < 2.1


def test_linearize_structure():
    v, t = 1.2, 0.04
    model = linearize(BENCH, v, t)
    m = BENCH.mass
    rho_v = BENCH.air_density * v
    expected_a = np.array([
        [-rho_v * BENCH.drag_coeff / m, 0, 0, 0],
        [0, rho_v * BENCH.lift_slope / (2 * m), 0, -v],
        [0, 0, rho_v * BENCH.lift_slope / (2 * m), 0],
        [0, rho_v * BENCH.ref_chord * BENCH.moment_slope / (2 * m), 0,
         -BENCH.yaw_damping / BENCH.inertia_z],
    ])
    assert np.allclose(model.a, expected_a, rtol=1e-14)
    # only four input entries are nonzero
    mask = np.zeros((4, 3), dtype=bool)
    mask[0, 0] = mask[1, 1] = mask[2, 2] = mask[3, 1] = True
    assert np.all(model.b[~mask] == 0.0)
    assert np.allclose(model.b[mask], [1 / m, t / m, -t / m, BENCH.mount_x * t / BENCH.inertia_z])


def test_linearize_gimbal_authority_vanishes_without_thrust():
    model = linearize(BENCH, 1.0, 1e-9)
    assert np.max(np.abs(model.b[:, 1:])) < 1e-8
    with pytest.raises(ValueError):
        linearize(BENCH, 1.0, 0.0)


@pytest.mark.parametrize("speed, thrust, message", [
    (math.inf, 0.05, "trim_speed must be positive and finite, got inf"),
    (1.0, math.inf, "trim_thrust must be positive and finite, got inf"),
    (-math.inf, 0.05, "trim_speed must be positive and finite, got -inf"),
])
def test_linearize_refuses_a_non_finite_trim(speed, thrust, message):
    # An infinite trim speed would fill the matrix with -inf and nan, as step_response's inputs would.
    with pytest.raises(ValueError, match=f"^{message}$"):
        linearize(BENCH, speed, thrust)


def test_lateral_entries_are_asserted_not_derived():
    # With a nonzero lift slope the verbatim matrix carries the symmetric
    # lateral/vertical closures (positive dv/dw entries and the dv-to-dr
    # moment slope). The nonlinear model's attack-only aero closure does not
    # produce them: its sway Jacobian entry is zero and its heave entry is
    # (C_D - C_La) shaped. Pin that difference so it stays visible.
    from ionblimp.dynamics import BodyState, ThrusterCommand, full_derivatives, thruster_wrench

    params = AirshipParams(lift_slope=0.2, moment_slope=0.05, inertia_xz=0.0)
    speed, thrust = 1.0, 0.05
    model = linearize(params, speed, thrust)
    x0 = BodyState(u=speed).as_array()
    wrench = thruster_wrench(params, ThrusterCommand(thrust=thrust))
    eps = 1e-6

    def column(j):
        dx = np.zeros(12)
        dx[j] = eps
        plus = np.array(full_derivatives(params, (x0 + dx).tolist(), wrench))
        minus = np.array(full_derivatives(params, (x0 - dx).tolist(), wrench))
        return (plus - minus) / (2 * eps)

    dv_col, dw_col = column(1), column(2)
    half_rho_v_m = 0.5 * params.air_density * speed / params.mass
    assert model.a[1, 1] == pytest.approx(half_rho_v_m * params.lift_slope)
    assert abs(dv_col[1]) < 1e-8  # no sway force in the nonlinear closure
    assert abs(dv_col[5]) < 1e-8  # and no sway-induced yaw moment
    expected_heave = half_rho_v_m * (params.drag_coeff - params.lift_slope)
    assert dw_col[2] == pytest.approx(expected_heave, rel=1e-4)


# --- surge gain ------------------------------------------------------------

def test_design_ku_unity_dc_bench_value():
    k_u = design_ku_unity_dc(U_CHANNEL_GAIN, U_CHANNEL_POLE)
    assert k_u == pytest.approx(0.9828, abs=5e-4)
    assert k_u == pytest.approx(0.982876712328767, rel=1e-12)


def test_design_ku_degenerate_cases():
    assert design_ku_unity_dc(2.0, 0.0) == 1.0
    assert design_ku_unity_dc(2.0, 2.0) == 0.0


def test_design_ku_reaches_unity_dc_exactly():
    for gain, pole in ((3.3580, 0.0575), (1.7, 0.4), (10.0, 2.0)):
        k_u = design_ku_unity_dc(gain, pole)
        tf = close_u_loop(k_u, gain=gain, pole=pole)
        assert abs(tf.dc_gain - 1.0) < 1e-12
        assert tf.pole > 0.0  # closed pole strictly stable for k_u > 0 designs


# --- heave gain bound ------------------------------------------------------

def test_kw_lower_bound_cases():
    no_lift = AirshipParams(lift_slope=0.0)
    assert kw_lower_bound(no_lift, 1.0, 0.05) == 0.0
    some = AirshipParams(lift_slope=0.1)
    assert kw_lower_bound(some, 1.0, 0.05) == pytest.approx(1.205, rel=1e-12)
    assert kw_lower_bound(some, 1.0, 0.10) == pytest.approx(
        kw_lower_bound(some, 1.0, 0.05) / 2.0, rel=1e-12
    )
    with pytest.raises(ValueError, match="^trim_thrust must be positive and finite, got 0.0$"):
        kw_lower_bound(some, 1.0, 0.0)


# --- sway/yaw closed loop ---------------------------------------------------

def test_closed_loop_zero_gains_is_open_loop_block():
    model = linearize(BENCH, 1.0, 0.05)
    a_vr = model.a[np.ix_([1, 3], [1, 3])]  # the (dv, dr) rows and columns
    assert np.allclose(closed_loop_vr(model, 0.0, 0.0), a_vr)


def test_closed_loop_generic_gains_substitution_oracle():
    # Substitute d_deltay = -k1 dv - k2 dr by hand, scalar by scalar.
    v, t, k1, k2 = 1.0, 0.05, 0.7, 2.3
    model = linearize(BENCH, v, t)
    m, iz, sx = BENCH.mass, BENCH.inertia_z, BENCH.mount_x
    rho_v = BENCH.air_density * v
    expected = np.array([
        [rho_v * BENCH.lift_slope / (2 * m) - (t / m) * k1, -v - (t / m) * k2],
        [rho_v * BENCH.ref_chord * BENCH.moment_slope / (2 * m) - (sx * t / iz) * k1,
         -BENCH.yaw_damping / iz - (sx * t / iz) * k2],
    ])
    assert np.allclose(closed_loop_vr(model, k1, k2), expected, rtol=1e-14)


def test_certified_gains_give_hurwitz_closed_loop():
    model = linearize(BENCH, 1.0, 0.05)
    found = search_stabilizing_gains(model, np.linspace(0, 5, 11), np.linspace(0, 5, 11))
    assert found is not None
    k1, k2, cert = found
    assert cert.is_valid
    eigs = np.linalg.eigvals(closed_loop_vr(model, k1, k2))
    assert np.all(eigs.real < 0.0)


# --- Lyapunov certification --------------------------------------------------

def test_lyapunov_identity_case():
    cert = lyapunov_certify(-np.eye(2))
    assert np.allclose(cert.m, 0.5 * np.eye(2))
    assert cert.residual == 0.0
    assert cert.is_valid


def test_lyapunov_diagonal_case():
    cert = lyapunov_certify(np.diag([-1.0, -2.0]))
    assert np.allclose(cert.m, np.diag([0.5, 0.25]))
    assert cert.is_valid


def test_lyapunov_unstable_eigenvalue_fails_certification():
    cert = lyapunov_certify(np.diag([1.0, -2.0]))
    assert cert.m[0, 0] == pytest.approx(-0.5)
    assert cert.min_eigenvalue < 0.0
    assert not cert.is_valid


def test_lyapunov_singular_system():
    # Purely imaginary eigenvalue pair: lambda_i + lambda_j = 0.
    with pytest.raises(SingularLyapunov):
        lyapunov_certify(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_lyapunov_random_hurwitz_matches_scipy():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a_cl = rng.normal(0, 1, (2, 2))
        a_cl = a_cl - (np.max(np.linalg.eigvals(a_cl).real) + rng.uniform(0.3, 1.5)) * np.eye(2)
        assert np.all(np.linalg.eigvals(a_cl).real < 0)
        cert = lyapunov_certify(a_cl)
        assert cert.residual < 1e-10
        assert cert.min_eigenvalue > 0.0
        reference = scipy.linalg.solve_continuous_lyapunov(a_cl.T, -np.eye(2))
        assert np.allclose(cert.m, reference, rtol=1e-8, atol=1e-10)


def test_lyapunov_random_non_hurwitz_never_certifies():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 30:
        a_cl = rng.normal(0, 1, (2, 2))
        eigs = np.linalg.eigvals(a_cl)
        if np.max(eigs.real) < 1e-6:
            continue
        checked += 1
        try:
            cert = lyapunov_certify(a_cl)
        except SingularLyapunov:
            continue
        assert not cert.is_valid


def test_search_is_deterministic_and_first_hit():
    model = linearize(BENCH, 1.0, 0.05)
    grid1 = search_stabilizing_gains(model, np.linspace(0, 5, 11), np.linspace(0, 5, 11))
    grid2 = search_stabilizing_gains(model, np.linspace(0, 5, 11), np.linspace(0, 5, 11))
    assert grid1[:2] == grid2[:2]
    # nothing earlier in row-major order certifies
    k1s = np.linspace(0, 5, 11)
    k2s = np.linspace(0, 5, 11)
    hit = grid1[:2]
    for k1 in k1s:
        for k2 in k2s:
            if (k1, k2) == hit:
                return
            try:
                assert not lyapunov_certify(closed_loop_vr(model, k1, k2)).is_valid
            except SingularLyapunov:
                pass


def test_search_returns_none_when_nothing_stabilizes():
    model = linearize(BENCH, 1.0, 0.05)
    assert search_stabilizing_gains(model, [50.0, 80.0], [50.0, 80.0]) is None


# --- step response -----------------------------------------------------------

def test_step_response_designed_gain():
    k_u = design_ku_unity_dc(U_CHANNEL_GAIN, U_CHANNEL_POLE)
    tf = close_u_loop(k_u)
    t, y = step_response(tf, duration=5.0, dt=0.001)
    assert abs(y[-1] - 1.0) < 1e-3
    assert tf.time_constant == pytest.approx(0.2978, rel=2e-3)
    # 63.2% rise at one time constant
    idx = np.searchsorted(y, (1.0 - np.exp(-1.0)) * y[-1])
    assert t[idx] == pytest.approx(0.2978, rel=0.02)


def test_step_response_open_loop_dc():
    t, y = step_response(close_u_loop(0.0), duration=300.0, dt=0.1)
    assert close_u_loop(0.0).dc_gain == pytest.approx(58.4, rel=1e-3)
    assert y[-1] < close_u_loop(0.0).dc_gain


def test_step_response_pole_at_origin_ramps():
    t, y = step_response(FirstOrderTf(gain=2.0, pole=0.0), duration=1.0, dt=0.25)
    assert np.allclose(y, 2.0 * t)


def test_step_response_argument_validation():
    with pytest.raises(ValueError):
        step_response(FirstOrderTf(1.0, 1.0), duration=0.0, dt=0.1)
    with pytest.raises(ValueError):
        step_response(FirstOrderTf(1.0, 1.0), duration=1.0, dt=0.0)


def test_gain_report_is_key_value_text():
    model = linearize(BENCH, 1.0, 0.05)
    cert = lyapunov_certify(closed_loop_vr(model, 0.0, 1.5))
    design = InnerLoopConfig(trim_speed=1.0, trim_thrust=0.05, k_u=0.9828, k_w=1.3, k1=0.0, k2=1.5)
    text = gain_report(design, cert)
    parsed = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert parsed["certificate_valid"] == "true"
    assert float(parsed["k2"]) == 1.5
    assert float(parsed["lyapunov_residual"]) < 1e-10
