"""Thruster kernels against their earlier forms in reference_thruster.

The Monte-Carlo kernel takes |u + d| and |u - d| from |d|^2 + |u|^2 +- 2 u.d
instead of forming both (m, 3) differences, so its floats differ from the
reference's only by rounding; these properties bound that difference and
keep the exact zero at u = 0. The two mobility forms share one drift factor
in the same operation order as the written-out forms, so they are equal.
"""

import numpy as np
import reference_thruster as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp.thruster import GasIonParams, collision_force_density_mc, ion_mobility, mobility_from_force_balance

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# Thermal spread sigma = sqrt(kT (1/m + 1/M)) is about 420 m/s here.
GAS = GasIonParams(
    ion_mass=4.65e-26,
    neutral_mass=4.65e-26,
    temperature=300.0,
    ion_charge=1.602176634e-19,
    cross_section=1e-19,
    ion_density=1e15,
    neutral_density=2.5e25,
)

# Each slip component is zero or 10 m/s to 3e4 m/s in size, so the slip runs
# from zero to far above the thermal speed. A nonzero |u| much below that is
# left out: both forms round |u +- d| at about eps * sigma, which is then no
# longer small beside the pair difference |u + d| - |u - d|, about 2 u.d / |d|.
COMPONENT = st.one_of(st.just(0.0), st.floats(10.0, 3e4), st.floats(-3e4, -10.0))
SLIP = st.tuples(COMPONENT, COMPONENT, COMPONENT)
SEED = st.integers(0, 2**32 - 1)


@st.composite
def sizes(draw, even=False):
    n_samples = draw(st.integers(1, 2_000))
    if even:
        n_samples += n_samples % 2
    return n_samples, draw(st.integers(1, n_samples + 50))


@PROPERTY
@given(slip=SLIP, size=sizes(), seed=SEED)
def test_monte_carlo_matches_the_two_norm_reference(slip, size, seed):
    n_samples, chunk = size
    got = collision_force_density_mc(GAS, slip, n_samples=n_samples, seed=seed, chunk=chunk)
    want = ref.collision_force_density_mc(GAS, slip, n_samples, seed, chunk)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (got, want)


@PROPERTY
@given(size=sizes(even=True), seed=SEED)
def test_monte_carlo_is_exactly_zero_at_zero_slip_for_every_chunk(size, seed):
    # u = 0 makes the plus and minus squares the same floats, so each pair cancels.
    n_samples, chunk = size
    mc = collision_force_density_mc(GAS, [0.0, 0.0, 0.0], n_samples=n_samples, seed=seed, chunk=chunk)
    assert mc.tolist() == [0.0, 0.0, 0.0]


# Every field from 1e-40 to 1e40: wide enough for any gas, narrow enough that no
# product or quotient of the mobility forms overflows or underflows to zero.
GAS_PARAMS = st.builds(GasIonParams, *[st.floats(1e-40, 1e40)] * 7)


@PROPERTY
@given(gas=GAS_PARAMS)
def test_mobility_forms_equal_the_written_out_forms(gas):
    assert ion_mobility(gas) == ref.ion_mobility(gas)
    assert mobility_from_force_balance(gas) == ref.mobility_from_force_balance(gas)
