"""``integrate_step`` against the array RK4 and the list-comprehension RK4 it replaced, component for component.

The goldens compare trajectories at 1e-9, and only on three scenarios.
These properties assert that the unrolled float step equals the array form
exactly, through the plants' full, planar and pose fields, and that it
equals the list-comprehension step it replaced (``list_rk4``) on any state
length and state form, stage input for stage input, error for error.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ionblimp import harness
from ionblimp.dynamics import GIMBAL_LIMIT, STATE_LABELS, AirshipParams, BodyState, ThrusterCommand, thruster_wrench
from ionblimp.harness import NonFiniteState, Scenario, SmcScenarioConfig, integrate_step, run_scenario
from ionblimp.inner_loop import InnerLoopConfig
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


def list_rk4(derivative_fn, state, u, dt: float, labels=STATE_LABELS) -> tuple:
    """The list-comprehension RK4 step that the unrolled kernel replaced, verbatim but for its name."""
    if not 0.0 < dt < math.inf:  # nan fails both comparisons
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    n, half, h6 = len(state), 0.5 * dt, dt / 6.0
    k1 = _sized(derivative_fn(state, u), n)
    k2 = _sized(derivative_fn([y + half * k for y, k in zip(state, k1)], u), n)
    k3 = _sized(derivative_fn([y + half * k for y, k in zip(state, k2)], u), n)
    k4 = _sized(derivative_fn([y + dt * k for y, k in zip(state, k3)], u), n)
    result = tuple([y + h6 * (((a + 2.0 * b) + 2.0 * c) + d) for y, a, b, c, d in zip(state, k1, k2, k3, k4)])
    if not all(map(math.isfinite, result)):
        names = ", ".join(labels[i] if labels and i < len(labels) else f"[{i}]"
                          for i, value in enumerate(result) if not math.isfinite(value))
        raise NonFiniteState(f"non-finite state component(s): {names}")
    return result


def _sized(k, n: int):
    if len(k) != n:  # zip would silently truncate the longer of the state and k
        raise ValueError(f"derivative has {len(k)} components, the state has {n}")
    return k


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


def _bits(values) -> list:
    """Each value's type and repr: equal lists are equal bit for bit, -0.0 and nan included."""
    return [(type(value), repr(value)) for value in values]


def _outcome(step, field, state, u, dt, labels):
    """What one RK4 step did: its result or error, and every stage input it handed the field, as _bits."""
    stages = []

    def recorded(stage, u):
        stages.append((type(stage), _bits(stage)))
        return field(stage, u, len(stages))

    try:
        got = ("result", _bits(step(recorded, state, u, dt, labels)))
    except (ValueError, NonFiniteState) as exc:
        got = (type(exc), str(exc))
    return got, stages


WIDE = st.floats(-1e200, 1e200) | st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, math.nan])
FORMS = {"tuple": tuple, "list": list, "ndarray": lambda values: np.array(values, dtype=float)}


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(data=st.data(), n=st.integers(0, 13), form=st.sampled_from(sorted(FORMS)),
       out_form=st.sampled_from(sorted(FORMS)), u=st.floats(-10.0, 10.0), dt=STEPS,
       bad_stage=st.sampled_from([None, None, None, None, 1, 2, 3, 4]),
       labels=st.sampled_from(["none", "empty", "short", "full"]))
def test_the_unrolled_step_is_the_list_step(data, n, form, out_form, u, dt, bad_stage, labels):
    # A nonlinear field on n components; wide values make some steps overflow to a non-finite result, and a
    # bad stage returns an output of another length there.
    state = FORMS[form](data.draw(st.lists(WIDE if data.draw(st.booleans()) else st.floats(-10.0, 10.0),
                                           min_size=n, max_size=n)))
    coef = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    bad_length = (m := data.draw(st.integers(0, 13))) + (m >= n)  # any length in 0..14 but n
    names = {"none": None, "empty": (), "short": tuple(f"c{i}" for i in range(n // 2)),
             "full": tuple(f"c{i}" for i in range(n))}[labels]

    def field(y, u, stage):
        if stage == bad_stage:
            return FORMS[out_form]([1.0] * bad_length)
        return FORMS[out_form]([coef[i] * y[i] + u * math.sin(y[i - 1]) if math.isfinite(y[i - 1]) else y[i - 1]
                                for i in range(n)])

    with np.errstate(all="ignore"):  # an ndarray state warns where a float overflows; both steps see the same
        got = _outcome(integrate_step, field, state, u, dt, names)
        assert got == _outcome(list_rk4, field, state, u, dt, names)
    event(f"{got[0][0]} at stage {len(got[1])}, labels {labels}")


PLANTS = {
    "open_loop": Scenario(model="full", duration=0.01, dt=0.001),
    "inner_loop": Scenario(controller="inner_loop", duration=0.01, dt=0.001,
                           inner_loop=InnerLoopConfig(trim_speed=0.3, trim_thrust=0.01, k_u=0.5)),
    "smc": Scenario(initial=BodyState(h=2.0), controller="smc", duration=0.01, dt=0.001, smc=SmcScenarioConfig(
        gains=SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0),
        reference=ReferenceTrajectory(times=[0.0, 1.0], poses=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.5]]))),
}


@pytest.mark.parametrize("controller", sorted(PLANTS))
def test_a_run_compiles_its_state_length_once(controller):
    harness._rk4_kernel.cache_clear()
    run_scenario(PLANTS[controller])
    info = harness._rk4_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 9, 1)  # ten steps, one state length
