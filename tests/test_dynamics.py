import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_dynamics import velocity

from ionblimp.dynamics import (
    GIMBAL_LIMIT,
    STATE_LABELS,
    AirshipParams,
    BodyState,
    PLANAR_TOL,
    FLOW_ANGLE_LIMIT,
    V_EPS,
    ConstraintViolation,
    ThrusterCommand,
    aero_wrench,
    full_derivatives,
    gravity_buoyancy_wrench,
    planar_derivatives,
    thruster_wrench,
    wrap_angle,
)
from ionblimp.frames import ground_to_body
from ionblimp.harness import integrate_step

PARAMS = AirshipParams(lift_slope=0.2, moment_slope=0.05)


def random_planar_state(rng):
    return BodyState(
        u=rng.uniform(-1, 1), v=rng.uniform(-1, 1), w=rng.uniform(-1, 1),
        r=rng.uniform(-1, 1), x=rng.uniform(-5, 5), y=rng.uniform(-5, 5),
        h=rng.uniform(0, 3), psi=rng.uniform(-3, 3),
    )


# --- aero wrench -----------------------------------------------------------

def test_aero_zero_at_rest():
    wr = aero_wrench(PARAMS, 0.0, 0.0, 0.0)
    assert np.allclose(wr[:3], 0.0) and np.allclose(wr[3:], 0.0)


def test_aero_pure_drag_straight_flight():
    v = 1.3
    wr = aero_wrench(PARAMS, v, 0.0, 0.0)
    drag = 0.5 * PARAMS.air_density * v**2 * PARAMS.drag_coeff
    assert np.allclose(wr[:3], [-drag, 0.0, 0.0], atol=1e-15)
    assert np.allclose(wr[3:], 0.0, atol=1e-15)


def test_aero_generic_point_scalar_oracle():
    # Hand-rolled closure + rotation for v = (1, 0, 0.1): beta = 0, so
    # F = (-D ca - L sa, 0, D sa - L ca) and M = (0, M, 0).
    speed_sq = 1.01
    alpha = np.arctan2(0.1, 1.0)
    q_dyn = 0.5 * PARAMS.air_density * speed_sq
    drag = q_dyn * PARAMS.drag_coeff
    lift = q_dyn * PARAMS.lift_slope * alpha
    pitch_m = q_dyn * PARAMS.ref_chord * PARAMS.moment_slope * alpha
    ca, sa = np.cos(alpha), np.sin(alpha)
    wr = aero_wrench(PARAMS, 1.0, 0.0, 0.1)
    assert np.allclose(wr[:3], [-drag * ca - lift * sa, 0.0, drag * sa - lift * ca], atol=1e-14)
    assert np.allclose(wr[3:], [0.0, pitch_m, 0.0], atol=1e-14)


def _min_max_aero_wrench(params, u, v, w):
    """aero_wrench with its three clamps written as min(max(x, lo), hi) calls."""
    speed_sq = u * u + v * v + w * w
    speed = math.sqrt(speed_sq)
    if speed <= V_EPS:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    limit = FLOW_ANGLE_LIMIT
    alpha = min(max(math.atan2(w, u), -limit), limit)
    beta = min(max(math.asin(min(max(v / speed, -1.0), 1.0)), -limit), limit)
    q_dyn = 0.5 * params.air_density * speed_sq
    drag = q_dyn * params.drag_coeff
    lift = q_dyn * params.lift_slope * alpha
    pitch_moment = q_dyn * params.ref_chord * params.moment_slope * alpha
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    return (
        -drag * ca - lift * sa, (lift * ca - drag * sa) * sb, (drag * sa - lift * ca) * cb,
        0.0, pitch_moment * cb, pitch_moment * sb,
    )


SPEEDS, NEAR_ZERO = st.floats(-3.0, 3.0), st.floats(-1e-6, 1e-6)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(vel=st.tuples(SPEEDS, SPEEDS, SPEEDS)
       | st.tuples(st.floats(-3.0, -1e-3), SPEEDS, SPEEDS)  # u < 0: |alpha| > pi/2 is clipped
       | st.tuples(NEAR_ZERO, SPEEDS, NEAR_ZERO))  # |v| near the speed: beta is clipped
@example(vel=(-1.0, 0.0, 0.0)).via("alpha = pi")
@example(vel=(-1.0, 0.0, -0.0)).via("alpha = -pi")
@example(vel=(0.0, 2.0, 0.0)).via("v / speed = 1")
@example(vel=(-0.0, -2.0, -0.0)).via("v / speed = -1, signed zeros")
def test_aero_wrench_clamps_as_min_max_calls(vel):
    got, want = aero_wrench(PARAMS, *vel), _min_max_aero_wrench(PARAMS, *vel)
    assert [x.hex() for x in got] == [x.hex() for x in want]


# --- thruster wrench -------------------------------------------------------

def test_thruster_wrench_zero_deflection_cross_product():
    cmd = ThrusterCommand(thrust=0.04)
    wr = thruster_wrench(PARAMS, cmd)
    arm_z = PARAMS.mount_z + PARAMS.link_length
    assert np.allclose(wr[:3], [0.04, 0.0, 0.0], atol=1e-15)
    assert np.allclose(wr[3:], [0.0, arm_z * 0.04, 0.0], atol=1e-15)


def test_thruster_wrench_zero_thrust():
    wr = thruster_wrench(PARAMS, ThrusterCommand(thrust=0.0, yaw_deflection=0.4))
    assert np.allclose(wr[:3], 0.0) and np.allclose(wr[3:], 0.0)


def test_thruster_wrench_full_pitch_deflection():
    t = 0.03
    wr = thruster_wrench(PARAMS, ThrusterCommand(thrust=t, pitch_deflection=np.pi / 2))
    assert np.allclose(wr[:3], [0.0, 0.0, -t], atol=1e-15)
    # arm is (s_x + l, 0, s_z), force (0, 0, -T): moment = (0, (s_x + l) T, 0)
    expected_my = (PARAMS.mount_x + PARAMS.link_length) * t
    assert np.allclose(wr[3:], [0.0, expected_my, 0.0], atol=1e-15)


def test_thruster_force_norm_equals_thrust():
    rng = np.random.default_rng(7)
    for _ in range(100):
        cmd = ThrusterCommand(
            thrust=rng.uniform(0, 0.06),
            yaw_deflection=rng.uniform(-np.pi / 2, np.pi / 2),
            pitch_deflection=rng.uniform(-np.pi / 2, np.pi / 2),
        )
        wr = thruster_wrench(PARAMS, cmd)
        assert np.linalg.norm(wr[:3]) == pytest.approx(cmd.thrust, abs=1e-14)


# --- full 6-DOF model ------------------------------------------------------

def test_full_hover_equilibrium():
    # Neutral buoyancy, at rest, level, no thrust: exact equilibrium.
    d = full_derivatives(PARAMS, BodyState()._astuple(), thruster_wrench(PARAMS, ThrusterCommand()))
    assert np.allclose(d, 0.0, atol=1e-15)


def test_full_not_equilibrium_when_heavy():
    heavy = AirshipParams(net_lift=-0.05)
    d = full_derivatives(heavy, BodyState()._astuple(), thruster_wrench(heavy, ThrusterCommand()))
    assert d[2] == pytest.approx(0.05 / heavy.mass)  # sinks: positive w (body z down)


def test_full_pure_yaw_torque():
    p = AirshipParams(inertia_xz=0.0)
    cmd = ThrusterCommand(thrust=0.03, yaw_deflection=0.2)
    d = full_derivatives(p, BodyState()._astuple(), thruster_wrench(p, cmd))
    expected_rdot = p.mount_x * 0.03 * np.sin(0.2) / p.inertia_z
    assert d[5] == pytest.approx(expected_rdot, rel=1e-12)


def test_full_position_rates_are_rotated_velocity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        st = BodyState(
            u=rng.uniform(-1, 1), v=rng.uniform(-1, 1), w=rng.uniform(-1, 1),
            p=rng.uniform(-1, 1), q=rng.uniform(-1, 1), r=rng.uniform(-1, 1),
            phi=rng.uniform(-1, 1), theta=rng.uniform(-1, 1), psi=rng.uniform(-3, 3),
        )
        d = full_derivatives(PARAMS, st._astuple(), thruster_wrench(PARAMS, ThrusterCommand()))
        ground_vel = ground_to_body(st).T @ velocity(st)
        assert np.allclose(d[6:8], ground_vel[0:2], atol=1e-13)
        assert d[8] == pytest.approx(-ground_vel[2], abs=1e-13)


def test_full_position_rate_finite_difference_consistency():
    # d/dt of position from a tiny explicit-Euler step matches the derivative.
    st = BodyState(u=0.5, v=0.1, w=-0.2, phi=0.1, theta=-0.2, psi=0.8)
    d = np.array(full_derivatives(PARAMS, st._astuple(), thruster_wrench(PARAMS, ThrusterCommand())))
    dt = 1e-7
    moved = st.as_array() + dt * d
    fd = (moved[6:9] - st.as_array()[6:9]) / dt
    assert np.allclose(fd, d[6:9], rtol=1e-9)


@pytest.mark.parametrize("field", [full_derivatives, planar_derivatives])
@pytest.mark.parametrize("state", [(0.0,) * 11, [0.0] * 13], ids=["11-tuple", "13-list"])
def test_fields_reject_a_state_without_12_components(field, state):
    with pytest.raises(ValueError, match=r"values to unpack \(expected 12"):
        field(PARAMS, state, thruster_wrench(PARAMS, ThrusterCommand()))


@pytest.mark.parametrize("field", [full_derivatives, planar_derivatives])
def test_fields_return_one_float_tuple_for_every_state_form(field):
    # The two forms are the tuple and the list of 12 floats the RK4 step hands a field.
    y = BodyState(u=0.5, v=0.1, w=-0.2, r=0.3, x=1.0, y=-2.0, h=1.5, psi=0.8)._astuple()
    wrench = thruster_wrench(PARAMS, ThrusterCommand(thrust=0.02, yaw_deflection=0.3))
    want = field(PARAMS, y, wrench)
    assert type(want) is tuple and len(want) == 12 and all(type(c) is float for c in want)
    assert field(PARAMS, list(y), wrench) == want


# Ixx Izz - Ixz^2 rounds to exactly 0, and to -4.2e-21: a tensor eigenvalue
# test accepts both, then full_derivatives divides by that determinant.
NEAR_SINGULAR = [
    dict(inertia_x=0.011791525553737695, inertia_z=0.000732886982583319, inertia_xz=-0.0029397033154951063),
    dict(inertia_y=1.0, inertia_x=0.00040220716137835504, inertia_z=0.004607612277157131,
         inertia_xz=-0.001361328268540484),
]


@pytest.mark.parametrize("inertia", NEAR_SINGULAR, ids=["zero-determinant", "negative-determinant"])
def test_airship_params_reject_a_singular_roll_yaw_block(inertia):
    with pytest.raises(ValueError, match=r"^inertia tensor \(with Ixz coupling\) must be positive definite$"):
        AirshipParams(**inertia)


def _ulps_away(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ix=st.floats(1e-4, 0.1), iz=st.floats(1e-4, 0.1), iy=st.sampled_from([1e-3, 0.062, 1.0, 10.0]),
       sign=st.sampled_from([-1.0, 1.0]), ulps=st.integers(-4, 4))
def test_inertia_rule_is_the_kernel_determinant(ix, iz, iy, sign, ulps):
    # Ixz within a few ulps of +-sqrt(Ix Iz), where the tensor turns singular.
    ixz = _ulps_away(sign * math.sqrt(ix * iz), ulps)
    try:
        params = AirshipParams(inertia_x=ix, inertia_y=iy, inertia_z=iz, inertia_xz=ixz)
    except ValueError:
        return
    assert ix * iz - ixz * ixz > 0.0
    state = BodyState(u=0.4, p=0.3, q=-0.2, r=0.5, phi=0.1, theta=-0.2)
    derivative = full_derivatives(
        params, state._astuple(), thruster_wrench(params, ThrusterCommand(thrust=0.05, yaw_deflection=0.3))
    )
    assert np.all(np.isfinite(derivative))


def test_airship_params_validation():
    with pytest.raises(ValueError):
        AirshipParams(mass=0.0)
    with pytest.raises(ValueError):
        AirshipParams(inertia_xz=1.0)  # breaks positive definiteness
    with pytest.raises(ValueError):
        AirshipParams(yaw_damping=-0.1)


@pytest.mark.parametrize("name", AirshipParams._fields)
def test_airship_params_reject_non_finite(name):
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            AirshipParams(**{name: bad})


# --- planar model ----------------------------------------------------------

def test_planar_straight_cruise_no_yaw_rate():
    st = BodyState(u=0.8)
    d = planar_derivatives(PARAMS, st._astuple(), thruster_wrench(PARAMS, ThrusterCommand(thrust=0.01)))
    assert d[5] == pytest.approx(0.0, abs=1e-15)


def test_planar_kinematics_heading_east():
    st = BodyState(u=1.0, psi=np.pi / 2)
    d = planar_derivatives(PARAMS, st._astuple(), thruster_wrench(PARAMS, ThrusterCommand()))
    assert d[6] == pytest.approx(0.0, abs=1e-12)
    assert d[7] == pytest.approx(1.0, rel=1e-12)


def test_planar_rejects_off_manifold_state():
    with pytest.raises(ConstraintViolation):
        planar_derivatives(PARAMS, BodyState(theta=1e-6)._astuple(), thruster_wrench(PARAMS, ThrusterCommand()))
    with pytest.raises(ConstraintViolation):
        planar_derivatives(PARAMS, BodyState(q=1e-6)._astuple(), thruster_wrench(PARAMS, ThrusterCommand()))


def test_planar_yaw_damping_decays_rate():
    p = AirshipParams(yaw_damping=0.01)
    st = BodyState(r=0.5)
    d = planar_derivatives(p, st._astuple(), thruster_wrench(p, ThrusterCommand()))
    assert d[5] == pytest.approx(-0.01 * 0.5 / p.inertia_z, rel=1e-12)
    # integrate: r decays monotonically toward zero
    r = 0.5
    dt = 0.01
    values = [r]
    for _ in range(2000):
        k = planar_derivatives(p, BodyState(r=r)._astuple(), thruster_wrench(p, ThrusterCommand()))[5]
        r = r + dt * k
        values.append(r)
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05


def test_planar_equilibrium_at_rest():
    d = planar_derivatives(PARAMS, BodyState()._astuple(), thruster_wrench(PARAMS, ThrusterCommand()))
    assert np.allclose(d, 0.0, atol=1e-15)


def test_full_matches_planar_on_manifold():
    # On phi = theta = p = q = 0 with Ixz = 0 the two models must agree on
    # every component the planar model carries. The full model's p_dot and
    # q_dot are the off-manifold accelerations that the pitch/roll stability
    # assumption suppresses, so they are the only components excluded here.
    p = AirshipParams(lift_slope=0.2, moment_slope=0.05, inertia_xz=0.0)
    rng = np.random.default_rng(42)
    compare = [0, 1, 2, 5, 6, 7, 8, 9, 10, 11]
    for _ in range(100):
        st = random_planar_state(rng)
        wrench = thruster_wrench(p, ThrusterCommand(
            thrust=rng.uniform(0, 0.05), yaw_deflection=rng.uniform(-1.5, 1.5)
        ))
        df = np.array(full_derivatives(p, st._astuple(), wrench))
        dp = np.array(planar_derivatives(p, st._astuple(), wrench))
        assert np.allclose(df[compare], dp[compare], atol=1e-9)
        assert dp[3] == dp[4] == 0.0


LEVEL_STATES = st.builds(
    BodyState, u=st.floats(-2.0, 2.0), v=st.floats(-2.0, 2.0), w=st.floats(-2.0, 2.0), r=st.floats(-2.0, 2.0),
    x=st.floats(-50.0, 50.0), y=st.floats(-50.0, 50.0), h=st.floats(-5.0, 5.0), psi=st.floats(-10.0, 10.0),
)
# Every AirshipParams field but the roll/yaw inertias drawn around its default.
OTHER_PARAMS = dict(
    mass=st.floats(0.05, 2.0), inertia_y=st.floats(0.001, 0.5), cb_offset=st.floats(0.0, 0.5),
    mount_x=st.floats(-0.5, 0.5), mount_z=st.floats(-0.5, 0.5), link_length=st.floats(0.0, 0.2),
    yaw_damping=st.floats(0.0, 0.05), drag_coeff=st.floats(0.0, 0.3), lift_slope=st.floats(-0.5, 0.5),
    moment_slope=st.floats(-0.1, 0.1), ref_chord=st.floats(0.1, 3.0), air_density=st.floats(0.5, 1.5),
    net_lift=st.floats(-0.5, 0.5), gravity=st.floats(9.0, 10.0),
)
UNCOUPLED_PARAMS = st.builds(AirshipParams, inertia_x=st.floats(0.001, 0.5), inertia_z=st.floats(0.001, 0.5),
                             inertia_xz=st.just(0.0), **OTHER_PARAMS)
DEFLECTIONS = st.floats(-GIMBAL_LIMIT, GIMBAL_LIMIT)
COMMANDS = st.builds(ThrusterCommand, thrust=st.floats(0.0, 0.1), yaw_deflection=DEFLECTIONS,
                     pitch_deflection=DEFLECTIONS)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(params=UNCOUPLED_PARAMS, state=LEVEL_STATES, cmd=COMMANDS)
def test_full_matches_planar_on_manifold_property(params, state, cmd):
    # On phi = theta = p = q = 0 with Ixz = 0 the two fields agree on every component both
    # evolve: all but p_dot and q_dot, whatever the parameters and both gimbal deflections.
    y, wrench = state._astuple(), thruster_wrench(params, cmd)
    full, planar = full_derivatives(params, y, wrench), planar_derivatives(params, y, wrench)
    for i in (0, 1, 2, 5, 6, 7, 8, 9, 10, 11):
        assert math.isclose(full[i], planar[i], rel_tol=1e-12, abs_tol=1e-12), (STATE_LABELS[i], full, planar)
    assert planar[3] == planar[4] == 0.0


def test_full_matches_planar_all_components_with_null_coupling():
    # Zero pitch-moment slope and a thruster link ending at CM height make
    # the full model's pitch/roll moments vanish on the manifold, so all 12
    # components agree.
    p = AirshipParams(
        lift_slope=0.2, moment_slope=0.0, inertia_xz=0.0,
        mount_z=-0.1, link_length=0.1,
    )
    rng = np.random.default_rng(43)
    for _ in range(100):
        st = random_planar_state(rng)
        wrench = thruster_wrench(p, ThrusterCommand(thrust=rng.uniform(0, 0.05), yaw_deflection=rng.uniform(-1.5, 1.5)))
        assert np.allclose(
            full_derivatives(p, st._astuple(), wrench), planar_derivatives(p, st._astuple(), wrench), atol=1e-9
        )


# --- power balance ---------------------------------------------------------


def _coupled_params(ix, iz, coupling, **rest):
    """AirshipParams with Ixz = coupling * sqrt(Ix Iz); |coupling| < 1 keeps the tensor positive definite."""
    return AirshipParams(inertia_x=ix, inertia_z=iz, inertia_xz=coupling * math.sqrt(ix * iz), **rest)


# Half the draws couple roll and yaw through an Ixz up to 0.9 sqrt(Ix Iz).
COUPLED_PARAMS = st.builds(_coupled_params, ix=st.floats(0.001, 0.5), iz=st.floats(0.001, 0.5),
                           coupling=st.just(0.0) | st.floats(-0.9, 0.9), **OTHER_PARAMS)
# Airspeeds on both sides of V_EPS, where aero_wrench turns to zero, and well above it.
AIRSPEEDS = st.sampled_from([0.0, 0.5 * V_EPS, V_EPS, math.nextafter(V_EPS, 1.0), 2.0 * V_EPS]) | st.floats(0.0, 3.0)
DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: math.hypot(*d) > 0.1)
EDGE_COMMANDS = st.builds(ThrusterCommand, thrust=st.floats(0.0, 0.1),
                          yaw_deflection=st.sampled_from([-GIMBAL_LIMIT, GIMBAL_LIMIT]) | DEFLECTIONS,
                          pitch_deflection=st.sampled_from([-GIMBAL_LIMIT, GIMBAL_LIMIT]) | DEFLECTIONS)
RATES = st.floats(-2.0, 2.0)
ANGLES = st.floats(-10.0, 10.0)  # well outside (-pi, pi]


def _body_wrench(params, state, thrust_wrench):
    """The total body wrench (F, M) at a 12-float state, summed from the three public terms and the yaw damping."""
    u, v, w, _, _, r, _, _, _, phi, theta, _ = state
    aero = aero_wrench(params, u, v, w)
    weight = gravity_buoyancy_wrench(params, math.cos(phi), math.sin(phi), math.cos(theta), math.sin(theta))
    fx, fy, fz, mx, my, mz = (a + t + g for a, t, g in zip(aero, thrust_wrench, weight))
    return fx, fy, fz, mx, my, mz - params.yaw_damping * r


def _power_balance(params, state, derivative, thrust_wrench):
    """(m v.v_dot + w.I w_dot, F.v + M.w, a bound on their rounding) with the wrench summed from its terms."""
    u, v, w, p, q, r = state[:6]
    du, dv, dw, dp, dq, dr = derivative[:6]
    fx, fy, fz, mx, my, mz = _body_wrench(params, state, thrust_wrench)
    m, ix, iy, iz, ixz = params.mass, params.inertia_x, params.inertia_y, params.inertia_z, params.inertia_xz
    # I = [[Ix, 0, -Ixz], [0, Iy, 0], [-Ixz, 0, Iz]]
    stored = m * (u * du + v * dv + w * dw) + p * (ix * dp - ixz * dr) + q * iy * dq + r * (iz * dr - ixz * dp)
    supplied = fx * u + fy * v + fz * w + mx * p + my * q + mz * r
    speed, spin = abs(u) + abs(v) + abs(w), abs(p) + abs(q) + abs(r)
    force, moment = abs(fx) + abs(fy) + abs(fz), abs(mx) + abs(my) + abs(mz)
    inertia = ix + iy + iz + abs(ixz)
    return stored, supplied, speed * (m * speed * spin + force) + spin * (inertia * spin * spin + moment)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(params=COUPLED_PARAMS, airspeed=AIRSPEEDS, direction=DIRECTIONS, rates=st.tuples(RATES, RATES, RATES),
       position=st.tuples(*[st.floats(-50.0, 50.0)] * 3), phi=ANGLES,
       theta=ANGLES.filter(lambda theta: abs(math.cos(theta)) > 1e-3), psi=ANGLES, cmd=EDGE_COMMANDS)
def test_fields_balance_power(params, airspeed, direction, rates, position, phi, theta, psi, cmd):
    # In the body frame m (v_dot + w x v) = F and I w_dot + w x I w = M, and v.(w x v) = w.(w x I w) = 0,
    # so m v.v_dot + w.I w_dot = F.v + M.w: the fields' inertial and coupling terms must do no work.
    # The planar field is checked on its manifold phi = theta = p = q = 0, where it drops no term.
    scale = airspeed / math.hypot(*direction)
    velocity = tuple(d * scale for d in direction)
    wrench = thruster_wrench(params, cmd)
    full = (*velocity, *rates, *position, phi, theta, psi)
    planar = (*velocity, 0.0, 0.0, rates[2], *position, 0.0, 0.0, psi)
    for field, state in ((full_derivatives, full), (planar_derivatives, planar)):
        stored, supplied, bound = _power_balance(params, state, field(params, state, wrench), wrench)
        assert abs(stored - supplied) <= 1e-13 * bound, (field.__name__, stored, supplied, bound)


# --- the RK4 step's energy ------------------------------------------------

# Vehicle-like draws: the fastest motion (pendulum, pitch stiffness) stays below about 8 rad/s, so a 40 ms step
# is inside RK4's asymptotic range while the 10 ms step's energy error stays far above rounding. Thrust, drag and
# yaw damping are kept off zero, and every state turns: a draw where nothing does work and nothing turns has an
# energy error at rounding level, where no order shows.
VEHICLE_PARAMS = st.builds(
    _coupled_params, ix=st.floats(0.02, 0.1), iz=st.floats(0.02, 0.1), coupling=st.just(0.0) | st.floats(-0.6, 0.6),
    **{**OTHER_PARAMS, "mass": st.floats(0.2, 0.5), "inertia_y": st.floats(0.02, 0.1),
       "cb_offset": st.floats(0.0, 0.1), "yaw_damping": st.floats(0.01, 0.05), "drag_coeff": st.floats(0.05, 0.3),
       "moment_slope": st.floats(-0.05, 0.05), "ref_chord": st.floats(0.1, 1.0)},
)
WORKING_COMMANDS = st.builds(ThrusterCommand, thrust=st.floats(0.02, 0.1), yaw_deflection=DEFLECTIONS,
                             pitch_deflection=DEFLECTIONS)
# Forward flight (|alpha|, |beta| < 0.8 rad, clear of the flow-angle clips), turning at 0.5-2 rad/s, away from
# theta = +-pi/2.
FLIGHT_STATES = st.builds(
    lambda speed, heading, spin, axis, phi, theta, psi: (
        *(d * speed / math.hypot(*heading) for d in heading), *(a * spin / math.hypot(*axis) for a in axis),
        1.0, 2.0, 3.0, phi, theta, psi),
    speed=st.floats(0.5, 2.0), heading=st.tuples(st.floats(0.5, 1.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    spin=st.floats(0.5, 2.0), axis=DIRECTIONS, phi=ANGLES, theta=st.floats(-1.0, 1.0), psi=ANGLES,
)


def _kinetic_energy(params, state):
    """E = 1/2 m |v|^2 + 1/2 w.I w, with I = [[Ix, 0, -Ixz], [0, Iy, 0], [-Ixz, 0, Iz]]."""
    u, v, w, p, q, r = state[:6]
    spin = params.inertia_x * p * p + params.inertia_y * q * q + params.inertia_z * r * r
    return 0.5 * params.mass * (u * u + v * v + w * w) + 0.5 * spin - params.inertia_xz * p * r


def _work_over_step(params, state, thrust_wrench, dt, substeps=8):
    """F.v + M.w integrated over dt along the field's trajectory from state: composite Simpson on the nodes of
    `substeps` classical RK4 steps, written out here apart from integrate_step."""
    def field(y):
        return full_derivatives(params, y, thrust_wrench)

    h, y, power = dt / substeps, list(state), []
    for step in range(substeps + 1):
        power.append(sum(f * x for f, x in zip(_body_wrench(params, y, thrust_wrench), y[:6])))
        if step < substeps:
            a = field(y)
            b = field([yi + 0.5 * h * ki for yi, ki in zip(y, a)])
            c = field([yi + 0.5 * h * ki for yi, ki in zip(y, b)])
            d = field([yi + h * ki for yi, ki in zip(y, c)])
            y = [yi + h / 6.0 * (ai + 2.0 * bi + 2.0 * ci + di) for yi, ai, bi, ci, di in zip(y, a, b, c, d)]
    return h / 3.0 * (power[0] + power[-1] + 4.0 * sum(power[1::2]) + 2.0 * sum(power[2:-1:2]))


# The rolled state of the example below (phi = 1, r = 1, p = 0), where the energy error's dt^5 coefficient
# nearly cancels, among seven that turn.
ROLLED_STATES = [(u, 0.0, 0.0, 0.0, q, r, 1.0, 2.0, 3.0, phi, 0.0, psi) for u, q, r, phi, psi in [
    (1.0, 0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 1.0, 0.0), (1.0, 0.0, -1.0, 0.0, 0.0),
    (1.0, 1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.5, 0.0, 0.0), (1.0, 0.0, 0.5, 0.0, 0.0), (2.0, 0.0, 1.0, 0.0, 0.0)]]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(params=VEHICLE_PARAMS, cmd=WORKING_COMMANDS,
       states=st.lists(FLIGHT_STATES, min_size=8, max_size=8, unique=True))
@example(params=AirshipParams(mass=0.5, inertia_x=0.03125, inertia_y=0.0625, inertia_z=0.0625, inertia_xz=0.0,
                              cb_offset=0.09375, mount_x=0.0, mount_z=0.0, link_length=0.0, yaw_damping=0.03125,
                              drag_coeff=0.25, lift_slope=0.0, moment_slope=0.0, ref_chord=1.0, air_density=1.0,
                              net_lift=0.0, gravity=9.0),
         cmd=ThrusterCommand(0.0625, 0.0, 0.0), states=ROLLED_STATES)
def test_rk4_energy_error_falls_32x_per_halving(params, cmd, states):
    # One RK4 step's local error is C5 dt^5 + C6 dt^6 + O(dt^7), and so is e(dt), its error in E against the work
    # the wrench does over the step. Where C5 nearly cancels, the dt^6 term leads at these steps: at the example's
    # rolled state e(20 ms) / e(10 ms) read 59 (55.9 at 10 / 5 ms), and 42.78 summed over its eight states. So the
    # order is read from Richardson's difference 64 e(dt/2) - e(dt) = C5 dt^5 + O(dt^7), which falls by 2^5 = 32
    # from dt = 40 ms to 20 ms; summing it over eight distinct states keeps a C5 that cancels at one state from
    # deciding. The ratio read 29.6-32.9 over 2,000 derandomized draws (31.0-33.5 without tests/conftest.py), and
    # about 2 with any one RK4 stage weight changed. The 8-substep reference is off by about 2e-3 of either sum,
    # alike at each dt.
    wrench = thruster_wrench(params, cmd)

    def energy_error(state, dt):
        after = integrate_step(lambda y, u: full_derivatives(params, y, u), state, wrench, dt)
        change = _kinetic_energy(params, after) - _kinetic_energy(params, state)
        return change - _work_over_step(params, state, wrench, dt)

    errors = [[energy_error(state, dt) for dt in (0.04, 0.02, 0.01)] for state in states]
    coarse = sum(abs(64.0 * e20 - e40) for e40, e20, _ in errors)
    fine = sum(abs(64.0 * e10 - e20) for _, e20, e10 in errors)
    assert 24.0 < coarse / fine < 40.0, (coarse, fine)


def _max_call_manifold_check(phi, theta, p, q):
    """planar_derivatives' manifold check as one max() over all four components."""
    off_manifold = max(abs(wrap_angle(phi)), abs(wrap_angle(theta)), abs(p), abs(q))
    if off_manifold > PLANAR_TOL:
        raise ConstraintViolation(f"planar model requires phi=theta=p=q=0, worst violation {off_manifold:.3e}")


def _raised(call):
    try:
        call()
    except ValueError as exc:  # ConstraintViolation, or wrap_angle's for an infinite angle
        return type(exc), str(exc)
    return None


TOL_EDGES = [0.0, -0.0, PLANAR_TOL, -PLANAR_TOL, math.nextafter(PLANAR_TOL, 1.0), math.nextafter(-PLANAR_TOL, -1.0),
             1e-6, -2e-3, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi + 1e-12, math.nan, math.inf, -math.inf]
MANIFOLD_COMPONENTS = st.sampled_from(TOL_EDGES) | st.floats(-2.0 * PLANAR_TOL, 2.0 * PLANAR_TOL)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(phi=MANIFOLD_COMPONENTS, theta=MANIFOLD_COMPONENTS, p=MANIFOLD_COMPONENTS, q=MANIFOLD_COMPONENTS)
def test_planar_manifold_check_raises_as_the_max_call(phi, theta, p, q):
    # Raises, with the same text, exactly when the max() form does: nan, a whole turn and inf included.
    y = (0.4, 0.05, 0.0, p, q, 0.1, 1.0, -2.0, 1.5, phi, theta, 0.3)
    wrench = thruster_wrench(PARAMS, ThrusterCommand(thrust=0.01, yaw_deflection=0.2))
    want = _raised(lambda: _max_call_manifold_check(phi, theta, p, q))
    assert _raised(lambda: planar_derivatives(PARAMS, y, wrench)) == want


@pytest.mark.parametrize("component, value, worst", [
    (9, 1e-6, "1.000e-06"), (10, -2e-3, "2.000e-03"), (3, math.nextafter(PLANAR_TOL, 1.0), "1.000e-09"),
    (4, -math.inf, "inf"), (10, 2.0 * math.pi + 1e-6, "1.000e-06"),
])
def test_planar_off_manifold_error_text(component, value, worst):
    y = [0.0] * 12
    y[component] = value
    with pytest.raises(ConstraintViolation) as info:
        planar_derivatives(PARAMS, y, thruster_wrench(PARAMS, ThrusterCommand()))
    assert str(info.value) == f"planar model requires phi=theta=p=q=0, worst violation {worst}"


# --- shared pieces ---------------------------------------------------------

def test_gravity_buoyancy_wrench_level():
    p = AirshipParams(net_lift=0.12)
    wr = gravity_buoyancy_wrench(p, 1.0, 0.0, 1.0, 0.0)  # level: cos/sin of zero roll and pitch
    assert np.allclose(wr[:3], [0.0, 0.0, -0.12], atol=1e-15)
    assert np.allclose(wr[3:], 0.0, atol=1e-15)


def test_gravity_buoyancy_restoring_moment_scales_with_weight():
    p = AirshipParams(net_lift=0.0)
    wr = gravity_buoyancy_wrench(p, 1.0, 0.0, math.cos(0.1), math.sin(0.1))
    expected = -p.cb_offset * p.mass * p.gravity * np.sin(0.1)
    assert wr[4] == pytest.approx(expected, rel=1e-12)


def test_body_state_array_round_trip():
    st = BodyState(u=1, v=2, w=3, p=4e-3, q=5e-3, r=6e-3, x=7, y=8, h=9, phi=0.1, theta=0.2, psi=0.3)
    assert BodyState.from_array(st.as_array()) == st == BodyState.from_array(st._astuple())
    for short_or_long in ((0.0,) * 11, [0.0] * 13):
        with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"):
            BodyState.from_array(short_or_long)
    assert st.as_array().tolist() == [getattr(st, name) for name in STATE_LABELS]
    assert STATE_LABELS == ("u", "v", "w", "p", "q", "r", "x", "y", "h", "phi", "theta", "psi")


def test_body_state_wraps_its_angles():
    state = BodyState(phi=3 * np.pi, theta=-3 * np.pi / 2, psi=2 * np.pi, r=7.0)
    assert (state.phi, state.theta, state.psi, state.r) == pytest.approx((np.pi, np.pi / 2, 0.0, 7.0), abs=1e-15)


def test_thruster_command_validation():
    # Messages name the axes as the config keys and CSV columns do.
    with pytest.raises(ValueError, match="^thrust must be non-negative, got -0.01$"):
        ThrusterCommand(thrust=-0.01)
    with pytest.raises(ValueError, match=r"^\|delta_y\| must not exceed .* rad, got 2.0$"):
        ThrusterCommand(thrust=0.01, yaw_deflection=2.0)
    with pytest.raises(ValueError, match=r"^\|delta_p\| must not exceed .* rad, got -2.0$"):
        ThrusterCommand(thrust=0.01, pitch_deflection=-2.0)
    ThrusterCommand(thrust=0.0, yaw_deflection=GIMBAL_LIMIT, pitch_deflection=-GIMBAL_LIMIT)
    # The limit is exact: one ulp past it is refused.
    with pytest.raises(ValueError, match=r"^\|delta_p\| must not exceed"):
        ThrusterCommand(thrust=0.01, pitch_deflection=math.nextafter(GIMBAL_LIMIT, 2.0))
    # nan is refused on every axis, named as above.
    with pytest.raises(ValueError, match="^thrust must be non-negative, got nan$"):
        ThrusterCommand(math.nan, math.nan, 0.0)
    with pytest.raises(ValueError, match=r"^\|delta_y\| must not exceed .* rad, got nan$"):
        ThrusterCommand(0.01, math.nan, 0.0)
    with pytest.raises(ValueError, match=r"^\|delta_p\| must not exceed .* rad, got nan$"):
        ThrusterCommand(0.01, 0.0, math.nan)
