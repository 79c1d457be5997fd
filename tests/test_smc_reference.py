"""The plain-float SMC kernel against the matrix formulation in reference_smc.

``smc_control`` and ``pose_acceleration`` use C_bg^-1 = C_bg^T and M^-1
computed once per model; the reference builds the transforms as matrices
and its plant calls ``np.linalg.solve`` on every evaluation.
"""

import math

import numpy as np
import reference_smc as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp.smc import SmcGains, SmcModel, TrackingError, pose_acceleration, smc_control

RTOL, ATOL = 1e-12, 1e-13
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


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
    got = smc_control(model, gains, err, eta_dot, psi)
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
    u = smc_control(model, gains, err, (0.0, 0.0, 0.0), 0.3)
    assert all(math.isnan(x) for x in u)
    assert all(math.isnan(x) for x in pose_acceleration(model, u, (0.0, 0.0, 0.0), 0.3))
