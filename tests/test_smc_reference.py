"""The plain-float SMC kernel against the references in reference_smc.

``smc_control`` and ``pose_acceleration`` use C_bg^-1 = C_bg^T and M^-1
computed once per model; the matrix reference builds the transforms as
matrices and its plant calls ``np.linalg.solve`` on every evaluation, so
those agree to a tolerance. The per-channel float functions keep the
operands and order of their generator forms in reference_smc, so those
agree exactly (``==``).
"""

import math

import numpy as np
import pytest
import reference_smc as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp.smc import (
    ReferenceTrajectory,
    SmcGains,
    SmcModel,
    TrackingError,
    lyapunov_monitor,
    pose_acceleration,
    sliding_surface,
    smc_control,
)

RTOL, ATOL = 1e-12, 1e-13
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
# A changed operation order shows on a large share of draws, so the exact checks need fewer.
EXACT = settings(PROPERTY, max_examples=100)


def _triple(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi))


def _matrix(lo, hi):
    return st.tuples(_triple(lo, hi), _triple(lo, hi), _triple(lo, hi)).map(np.array)


@st.composite
def models(draw):
    base = SmcModel.from_components(
        mass=draw(st.floats(0.1, 1.0)), inertia_z=draw(st.floats(0.01, 0.5)),
        added_mass_x=draw(st.floats(0.0, 0.2)), added_mass_y=draw(st.floats(0.0, 0.2)),
        added_inertia_z=draw(st.floats(0.0, 0.1)),
        cg_x=draw(st.floats(-0.05, 0.05)), cg_y=draw(st.floats(-0.05, 0.05)),
    )
    # A full aero matrix, not only the diagonal from_components builds.
    return SmcModel(mass_matrix=base.mass_matrix, aero_matrix=draw(_matrix(-0.2, 0.2)))


GAINS = st.builds(
    SmcGains,
    c1=st.floats(0.2, 2.0),
    c2=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    epsilon=st.floats(0.0, 0.2),
    k=st.floats(0.2, 2.0),
    boundary_layer=st.just(0.0) | st.floats(1e-3, 0.2),
)
# Per channel: a generic (error, rate) pair, or exactly zero so s = 0 hits sgn(0) = 0.
CHANNELS = st.tuples(*[st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
                       | st.just((0.0, 0.0))] * 3)
ANGLES = st.floats(-10.0, 10.0)  # reaches well outside (-pi, pi]


@PROPERTY
@given(model=models(), gains=GAINS, channels=CHANNELS, eta_dot=_triple(-1.0, 1.0), psi=ANGLES)
def test_control_matches_matrix_reference(model, gains, channels, eta_dot, psi):
    err = TrackingError(error=[e for e, _ in channels], error_rate=[r for _, r in channels])
    want = ref.smc_control(model, gains, err.error, err.error_rate, eta_dot,
                           *ref.planar_transforms(psi, eta_dot[2]))
    got = smc_control(model, gains, sliding_surface(gains, err), err.error_rate, eta_dot, psi)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


@PROPERTY
@given(model=models(), u_forces=_triple(-0.1, 0.1), eta_dot=_triple(-1.0, 1.0), psi=ANGLES)
def test_pose_acceleration_matches_matrix_reference(model, u_forces, eta_dot, psi):
    want = ref.pose_acceleration(model, u_forces, eta_dot, *ref.planar_transforms(psi, eta_dot[2]))
    got = pose_acceleration(model, u_forces, eta_dot, psi)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def test_control_propagates_nan():
    model = SmcModel.from_components(mass=0.3, inertia_z=0.06, cg_x=0.02)
    gains = SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0)
    err = TrackingError(error=[math.nan, 0.0, 0.0], error_rate=[0.0, 0.0, 0.0])
    u = smc_control(model, gains, sliding_surface(gains, err), err.error_rate, (0.0, 0.0, 0.0), 0.3)
    assert all(math.isnan(x) for x in u)
    assert all(math.isnan(x) for x in pose_acceleration(model, u, (0.0, 0.0, 0.0), 0.3))


# --- exact agreement with the generator forms ---------------------------------

WIDE = st.floats(-1e3, 1e3)


@st.composite
def references(draw):
    """A 2-6 knot table; yaw steps up to 3 pi, so most tables unwrap."""
    n = draw(st.integers(2, 6))
    times = [draw(st.floats(-5.0, 5.0))]
    for _ in range(n - 1):
        times.append(times[-1] + draw(st.floats(1e-3, 2.0)))
    poses = [(draw(WIDE), draw(WIDE), draw(st.floats(-3 * math.pi, 3 * math.pi))) for _ in range(n)]
    return ReferenceTrajectory(times=times, poses=poses)


@st.composite
def query_times(draw, reference):
    """Inside a segment, on a knot, before the start, at the end or after it."""
    times = reference.times
    i = draw(st.integers(0, len(times) - 2))
    return draw(st.sampled_from([
        times[i] + draw(st.floats(0.0, 1.0, exclude_max=True)) * (times[i + 1] - times[i]),
        times[i],
        times[0] - draw(st.floats(1e-9, 10.0)),
        times[-1],
        times[-1] + draw(st.floats(1e-9, 10.0)),
    ]))


@EXACT
@given(data=st.data(), reference=references())
def test_sample_equals_the_generator_form(data, reference):
    t = data.draw(query_times(reference))
    assert reference.sample(t) == ref.sample(reference, t)


def test_sample_equals_the_generator_form_on_an_unwrapped_yaw_table():
    reference = ReferenceTrajectory(times=[0.0, 0.3, 0.7, 1.0], poses=[(0, 0, 3.0), (0.1, 0, -3.0),
                                                                       (0.2, 0.1, -0.5), (0.2, 0.3, 2.5)])
    assert reference.poses[3][2] > 2 * math.pi  # a steady spin, unwrapped past the seam
    for t in np.linspace(-0.5, 1.5, 201).tolist() + list(reference.times):
        assert reference.sample(t) == ref.sample(reference, t)


@EXACT
@given(pose=_triple(-1e3, 1e3), pose_rate=_triple(-1e3, 1e3), ref_pose=_triple(-1e3, 1e3),
       ref_rate=_triple(-1e3, 1e3))
def test_from_pose_equals_the_generator_form(pose, pose_rate, ref_pose, ref_rate):
    err = TrackingError.from_pose(pose, pose_rate, ref_pose, ref_rate)
    assert (err.error, err.error_rate) == ref.tracking_error(pose, pose_rate, ref_pose, ref_rate)


@EXACT
@given(gains=GAINS, error=_triple(-1e3, 1e3), error_rate=_triple(-1e3, 1e3))
def test_surface_and_monitor_equal_the_generator_forms(gains, error, error_rate):
    err = TrackingError(error=error, error_rate=error_rate)
    s = sliding_surface(gains, err)
    assert s == ref.float_sliding_surface(gains, err)
    assert lyapunov_monitor(gains, s) == ref.lyapunov_monitor(gains, s)


# Every entry of M nonzero, unlike the mass matrices from_components builds.
FULL_MODELS = st.builds(lambda m, a: SmcModel(mass_matrix=np.eye(3) + m, aero_matrix=a),
                        _matrix(0.01, 0.2), _matrix(-0.2, 0.2))


@EXACT
@given(model=FULL_MODELS, gains=GAINS, channels=CHANNELS, eta_dot=_triple(-1.0, 1.0), psi=ANGLES,
       u_forces=_triple(-0.1, 0.1))
def test_control_and_plant_equal_the_row_tuple_forms(model, gains, channels, eta_dot, psi, u_forces):
    s, rate = tuple(e for e, _ in channels), tuple(r for _, r in channels)
    want = ref.float_smc_control(model, gains, s, rate, eta_dot, psi)
    assert smc_control(model, gains, s, rate, eta_dot, psi) == want
    want = ref.float_pose_acceleration(model, u_forces, eta_dot, psi)
    assert pose_acceleration(model, u_forces, eta_dot, psi) == want


@pytest.mark.parametrize("number", [int, np.float64])
def test_sample_and_from_pose_return_python_floats(number):
    reference = ReferenceTrajectory(times=[number(0), number(2)], poses=[[number(0)] * 3, [number(1)] * 3])
    for t in (-1, 0, 1, 2, 3):
        pose, rate = reference.sample(number(t))
        assert all(type(value) is float for value in pose + rate)
    three = tuple(map(number, (1, 2, 3)))
    err = TrackingError.from_pose(three, three, (number(0),) * 3, (number(0),) * 3)
    assert all(type(value) is float for value in err.error + err.error_rate)
