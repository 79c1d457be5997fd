"""``integrate_step`` against the array RK4 it replaced, component for component.

The goldens compare trajectories at 1e-9, and only on three scenarios.
These properties assert that the float-tuple step equals the array form
exactly, through the plants' full, planar and pose fields.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp import harness
from ionblimp.dynamics import GIMBAL_LIMIT, AirshipParams, ThrusterCommand, thruster_wrench
from ionblimp.harness import Scenario, SmcScenarioConfig, integrate_step
from ionblimp.smc import ReferenceTrajectory, SmcGains

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def array_rk4(derivative_fn, state, u, dt):
    """The classic RK4 step over numpy arrays, as the simulator computed it before it used floats."""
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(derivative_fn(y, u))
    k2 = np.asarray(derivative_fn(y + 0.5 * dt * k1, u))
    k3 = np.asarray(derivative_fn(y + 0.5 * dt * k2, u))
    k4 = np.asarray(derivative_fn(y + dt * k3, u))
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _assert_bit_exact(plant, y, u, dt):
    got = integrate_step(plant.derivative, tuple(y), u, dt, plant.labels)
    want = array_rk4(plant.derivative, y, u, dt).tolist()
    assert type(got) is tuple and all(type(value) is float for value in got)
    assert len(got) == len(want)
    for name, a, b in zip(plant.labels, got, want):
        assert a == b, f"{name}: {a!r} != {b!r}"


def _floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


PARAMS = st.builds(
    AirshipParams,
    inertia_xz=st.floats(-0.02, 0.02),
    lift_slope=st.floats(0.0, 0.3),
    moment_slope=st.floats(-0.1, 0.1),
    net_lift=st.floats(-0.1, 0.1),
)
DEFLECTIONS = st.floats(-GIMBAL_LIMIT, GIMBAL_LIMIT)
COMMANDS = st.builds(ThrusterCommand, st.floats(0.0, 0.1), DEFLECTIONS, DEFLECTIONS)
STEPS = st.floats(1e-4, 0.05)


@PROPERTY
@given(params=PARAMS, body=_floats(-2.0, 2.0, 6), pos=_floats(-100.0, 100.0, 3),
       phi=st.floats(-10.0, 10.0), theta=st.floats(-1.2, 1.2), psi=st.floats(-10.0, 10.0),
       cmd=COMMANDS, dt=STEPS)
def test_full_step_is_the_array_step(params, body, pos, phi, theta, psi, cmd, dt):
    plant = harness.CONTROLLERS["open_loop"](Scenario(params=params, model="full"))
    _assert_bit_exact(plant, [*body, *pos, phi, theta, psi], thruster_wrench(params, cmd), dt)


@PROPERTY
@given(params=PARAMS, vel=_floats(-2.0, 2.0, 3), r=st.floats(-2.0, 2.0), pos=_floats(-100.0, 100.0, 3),
       psi=st.floats(-10.0, 10.0), cmd=COMMANDS, dt=STEPS)
def test_planar_step_is_the_array_step(params, vel, r, pos, psi, cmd, dt):
    plant = harness.CONTROLLERS["open_loop"](Scenario(params=params, model="planar"))
    _assert_bit_exact(plant, [*vel, 0.0, 0.0, r, *pos, 0.0, 0.0, psi], thruster_wrench(params, cmd), dt)


@PROPERTY
@given(mass=st.floats(0.1, 1.0), inertia_z=st.floats(0.01, 0.2), yaw_damping=st.floats(0.0, 0.02),
       added=_floats(0.0, 0.2, 3), cg=_floats(-0.1, 0.1, 2), pose=_floats(-10.0, 10.0, 3),
       rates=_floats(-2.0, 2.0, 3), u_forces=_floats(-0.1, 0.1, 3), dt=STEPS)
def test_pose_step_is_the_array_step(mass, inertia_z, yaw_damping, added, cg, pose, rates, u_forces, dt):
    ref = ReferenceTrajectory(times=[0.0, 1.0], poses=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    smc = SmcScenarioConfig(gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0), reference=ref,
                            added_mass_x=added[0], added_mass_y=added[1], added_inertia_z=added[2],
                            cg_x=cg[0], cg_y=cg[1])
    params = AirshipParams(mass=mass, inertia_z=inertia_z, yaw_damping=yaw_damping)
    plant = harness.CONTROLLERS["smc"](Scenario(params=params, controller="smc", smc=smc))
    _assert_bit_exact(plant, [*pose, *rates], tuple(u_forces), dt)
