"""The scalar wrench terms and derivative fields against the matrix forms in reference_dynamics.

Both fields share one kernel, so full-vs-planar agreement (acceptance
criterion 9) does not check the physics independently; these properties
compare each wrench term and each field with a separate implementation.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import reference_dynamics as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp.dynamics import (
    GIMBAL_LIMIT,
    PLANAR_TOL,
    AirshipParams,
    BodyState,
    ConstraintViolation,
    ThrusterCommand,
    aero_wrench,
    full_derivatives,
    gravity_buoyancy_wrench,
    planar_derivatives,
    require_finite,
    thruster_wrench,
)
from ionblimp.frames import V_EPS, AttitudeAngles

RTOL, ATOL = 1e-12, 1e-13
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def airship_params(draw):
    ix, iz = draw(st.floats(0.005, 0.05)), draw(st.floats(0.02, 0.1))
    return AirshipParams(
        inertia_x=ix,
        inertia_z=iz,
        # |Ixz| < sqrt(Ix Iz) keeps the inertia tensor positive definite
        inertia_xz=draw(st.floats(-0.9, 0.9)) * math.sqrt(ix * iz),
        lift_slope=draw(st.floats(0.0, 0.3)),
        moment_slope=draw(st.floats(-0.1, 0.1)),
        net_lift=draw(st.floats(-0.1, 0.1)),
        yaw_damping=draw(st.floats(0.0, 0.02)),
    )


def _pair(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi))


def _triple(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi))


# Generic flight, stagnant flow (speed <= V_EPS, aero zeroed), and flying
# backwards almost sideways (u < 0, |v| ~ speed) so both flow angles clip.
VELOCITIES = st.one_of(
    _triple(-2.0, 2.0),
    _triple(-V_EPS / 2, V_EPS / 2),
    st.builds(
        lambda v, f, g: (-abs(v) * f, v, v * g),
        st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
        st.floats(1e-12, 1e-9),
        st.floats(-1e-9, 1e-9),
    ),
)
ANGLES = st.floats(-10.0, 10.0)  # reaches well outside (-pi, pi]
# Away from the Euler singularity, plus exactly on it (both fields raise).
PITCHES = (ANGLES.filter(lambda th: abs(math.cos(th)) > 0.05)
           | st.sampled_from([math.pi / 2, -math.pi / 2, 3 * math.pi / 2]))
DEFLECTIONS = st.floats(-GIMBAL_LIMIT, GIMBAL_LIMIT) | st.sampled_from([-GIMBAL_LIMIT, GIMBAL_LIMIT])
COMMANDS = st.builds(ThrusterCommand, st.floats(0.0, 0.1), DEFLECTIONS, DEFLECTIONS)
# On the planar manifold up to PLANAR_TOL, or a full turn away from it.
LEVEL = (st.floats(-PLANAR_TOL / 2, PLANAR_TOL / 2)
         | st.sampled_from([2 * math.pi, -2 * math.pi, 4 * math.pi]))


def _outcome(field, params, state, cmd):
    try:
        return field(params, state, cmd)
    except (ConstraintViolation, ZeroDivisionError) as exc:
        return type(exc)


def _assert_same(field, reference, params, y, cmd):
    got = _outcome(field, params, y, cmd)
    want = _outcome(reference, params, BodyState.from_array(y), cmd)
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def _assert_same_terms(got, want):
    """A 6-float term tuple against the reference's (force, moment) pair."""
    np.testing.assert_allclose(got, np.concatenate(want), rtol=RTOL, atol=ATOL)


@PROPERTY
@given(params=airship_params(), vel=VELOCITIES)
def test_aero_wrench_matches_matrix_reference(params, vel):
    _assert_same_terms(aero_wrench(params, *vel), ref.aero_wrench(params, vel))


@PROPERTY
@given(params=airship_params(), cmd=COMMANDS)
def test_thruster_wrench_matches_matrix_reference(params, cmd):
    _assert_same_terms(thruster_wrench(params, cmd), ref.thruster_wrench(params, cmd))


@PROPERTY
@given(params=airship_params(), phi=ANGLES, theta=ANGLES, psi=ANGLES)
def test_gravity_buoyancy_wrench_matches_matrix_reference(params, phi, theta, psi):
    got = gravity_buoyancy_wrench(params, math.cos(phi), math.sin(phi), math.cos(theta), math.sin(theta))
    _assert_same_terms(got, ref.gravity_buoyancy_wrench(params, AttitudeAngles(phi, theta, psi)))


@PROPERTY
@given(params=airship_params(), vel=VELOCITIES, rates=_triple(-2.0, 2.0),
       pos=_triple(-100.0, 100.0), phi=ANGLES, theta=PITCHES, psi=ANGLES, cmd=COMMANDS)
def test_full_field_matches_matrix_reference(params, vel, rates, pos, phi, theta, psi, cmd):
    y = np.array([*vel, *rates, *pos, phi, theta, psi])
    _assert_same(full_derivatives, ref.full_derivatives, params, y, cmd)


@PROPERTY
@given(params=airship_params(), vel=VELOCITIES, r=st.floats(-2.0, 2.0),
       pos=_triple(-100.0, 100.0), phi=LEVEL | ANGLES, theta=LEVEL,
       pq=_pair(-PLANAR_TOL / 2, PLANAR_TOL / 2),
       psi=ANGLES, cmd=COMMANDS)
def test_planar_field_matches_matrix_reference(params, vel, r, pos, phi, theta, pq, psi, cmd):
    y = np.array([*vel, *pq, r, *pos, phi, theta, psi])
    _assert_same(planar_derivatives, ref.planar_derivatives, params, y, cmd)


@dataclass(frozen=True)
class _Holder:
    value: object


def _check_outcome(check, value):
    try:
        check(_Holder(value))
    except Exception as exc:  # noqa: BLE001  (the type and message are what is compared)
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("value", [
    0.5, -0.0, 1e308, 3, 0, -7, True, False, np.float64(2.5), np.float32(1.5), np.int64(4), np.bool_(True),
    math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"), np.float32("inf"),
    2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**400,  # numpy refuses ints beyond its integer range
    np.array(math.nan), np.array([1.0, 2.0]), np.array([1.0, math.inf]), (1.0, math.nan), [[0.0, 1.0]],
    "1.0", None,
], ids=repr)
def test_require_finite_matches_its_numpy_form(value):
    # Floats and ints are checked without numpy: the exception type and message must not change.
    assert _check_outcome(require_finite, value) == _check_outcome(ref.require_finite, value)
