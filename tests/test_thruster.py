import re
import tracemalloc

import numpy as np
import pytest

from ionblimp.constants import BOLTZMANN, STANDARD_GRAVITY
from ionblimp.thruster import (
    DEFAULT_ION_MOBILITY,
    DUAL_RING,
    ExtrapolatedThrustWarning,
    GasIonParams,
    OutOfRange,
    PunctureFault,
    QUAD_RING,
    SPACING_MAP_DUAL_RING,
    THROTTLE_MAP,
    ThrustMap,
    collision_force_density,
    collision_force_density_mc,
    dump_thrust_map,
    einstein_diffusivity,
    grams_force_to_newtons,
    ion_mobility,
    mobility_from_force_balance,
    spacing_to_thrust,
    throttle_to_thrust,
    thrust_from_current,
    thrust_to_weight,
)

NITROGEN_LIKE = GasIonParams(
    ion_mass=4.65e-26,
    neutral_mass=4.65e-26,
    temperature=300.0,
    ion_charge=1.602176634e-19,
    cross_section=1e-19,
    ion_density=1e15,
    neutral_density=2.5e25,
)


def test_collision_force_zero_slip():
    assert np.allclose(collision_force_density(NITROGEN_LIKE, [0.0, 0.0, 0.0]), 0.0)


def test_collision_force_linearity():
    u = np.array([37.0, -12.0, 4.0])
    f1 = collision_force_density(NITROGEN_LIKE, u)
    f2 = collision_force_density(NITROGEN_LIKE, 2.0 * u)
    assert np.allclose(f2, 2.0 * f1, rtol=1e-14)
    assert np.allclose(np.cross(f1, u), 0.0, atol=1e-12)  # parallel to u


def test_collision_force_frozen_value():
    f = collision_force_density(NITROGEN_LIKE, [100.0, 0.0, 0.0])
    assert f[0] == pytest.approx(6.959872542266579, rel=1e-12)
    assert f[1] == f[2] == 0.0


def test_collision_force_matches_monte_carlo():
    # Small fast check; the acceptance suite runs the full-size comparison.
    closed = collision_force_density(NITROGEN_LIKE, [100.0, 0.0, 0.0])
    mc = collision_force_density_mc(NITROGEN_LIKE, [100.0, 0.0, 0.0], n_samples=1_000_000, seed=11)
    assert np.linalg.norm(mc - closed) / np.linalg.norm(closed) < 0.02


def test_monte_carlo_reproducible_for_fixed_seed():
    a = collision_force_density_mc(NITROGEN_LIKE, [50.0, 0.0, 0.0], n_samples=200_000, seed=3)
    b = collision_force_density_mc(NITROGEN_LIKE, [50.0, 0.0, 0.0], n_samples=200_000, seed=3)
    assert np.array_equal(a, b)


def test_monte_carlo_is_exactly_zero_at_zero_slip():
    # Each antithetic pair (d, -d) cancels exactly when u = 0.
    mc = collision_force_density_mc(NITROGEN_LIKE, [0.0, 0.0, 0.0], n_samples=10_000, seed=5, chunk=1_000)
    assert mc.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("n_samples", [1, 2, 333, 1_001, 10_001])
def test_monte_carlo_odd_sizes_are_finite(n_samples):
    mc = collision_force_density_mc(NITROGEN_LIKE, [50.0, 0.0, 0.0], n_samples=n_samples, seed=2, chunk=333)
    assert np.isfinite(mc).all()


def test_monte_carlo_averages_exactly_n_samples_points():
    # Three samples are the pair u +- d0 and u + d1 alone, from one normal stream.
    p, u = NITROGEN_LIKE, np.array([50.0, -20.0, 10.0])
    sigma = np.sqrt(BOLTZMANN * p.temperature * (1.0 / p.neutral_mass + 1.0 / p.ion_mass))
    d0, d1 = np.random.default_rng(2).standard_normal((2, 3)) * sigma
    points = [u + d0, u - d0, u + d1]
    expected = sum(np.linalg.norm(g) * g for g in points) / 3
    scale = p.cross_section * (4.0 / 3.0) * p.reduced_mass * p.ion_density * p.neutral_density
    for chunk in (1, 2, 3, 1_000):
        mc = collision_force_density_mc(p, u, n_samples=3, seed=2, chunk=chunk)
        np.testing.assert_allclose(mc, scale * expected, rtol=1e-13)


@pytest.mark.parametrize("sizes, message", [({"n_samples": 0}, "n_samples"), ({"chunk": 0}, "chunk")])
def test_monte_carlo_rejects_empty_sizes(sizes, message):
    with pytest.raises(ValueError, match=message):
        collision_force_density_mc(NITROGEN_LIKE, [50.0, 0.0, 0.0], **{"n_samples": 10, **sizes})


@pytest.mark.parametrize("sizes, message", [
    ({"n_samples": 1e4}, "^n_samples must be an int, got 10000.0$"),
    ({"n_samples": True}, "^n_samples must be an int, got True$"),
    ({"chunk": 2.0}, "^chunk must be an int, got 2.0$"),
    ({"chunk": False}, "^chunk must be an int, got False$"),
])
def test_monte_carlo_refuses_sizes_that_are_not_ints(sizes, message):
    with pytest.raises(TypeError, match=message):
        collision_force_density_mc(NITROGEN_LIKE, [50.0, 0.0, 0.0], **{"n_samples": 10, **sizes})


def test_monte_carlo_does_not_depend_on_chunk_size():
    # Pairs come from one stream, so only the summation order differs.
    slip = [50.0, -20.0, 10.0]
    small = collision_force_density_mc(NITROGEN_LIKE, slip, n_samples=200_000, seed=4, chunk=1_000)
    whole = collision_force_density_mc(NITROGEN_LIKE, slip, n_samples=200_000, seed=4)
    odd = collision_force_density_mc(NITROGEN_LIKE, slip, n_samples=200_000, seed=4, chunk=333)
    np.testing.assert_allclose(small, whole, rtol=1e-12)
    np.testing.assert_allclose(odd, whole, rtol=1e-12)


def test_monte_carlo_holds_at_most_32_bytes_per_chunk_sample():
    # A chunk of m pairs, 2m samples, holds d (24 B per pair) and three length-m
    # buffers (8 B per pair each): 24 B per sample. The two-norm form held 44.8.
    tracemalloc.start()
    try:
        collision_force_density_mc(NITROGEN_LIKE, [50.0, -20.0, 10.0], n_samples=2_000_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1_000_000 <= 32.0  # the default chunk is 1_000_000 samples


def test_ion_mobility_verbatim():
    mu = ion_mobility(NITROGEN_LIKE)
    assert mu == pytest.approx(2.30202007906057e-41, rel=1e-12)
    # the cross-section placement makes the verbatim form differ from the
    # force-balance form by exactly cross_section^2
    assert mu == pytest.approx(
        mobility_from_force_balance(NITROGEN_LIKE) * NITROGEN_LIKE.cross_section**2, rel=1e-12
    )


def test_ion_mobility_halves_when_air_density_doubles():
    denser = GasIonParams(
        ion_mass=4.65e-26,
        neutral_mass=4.65e-26,
        temperature=300.0,
        ion_charge=1.602176634e-19,
        cross_section=1e-19,
        ion_density=1e15,
        neutral_density=5.0e25,
    )
    assert ion_mobility(denser) == pytest.approx(ion_mobility(NITROGEN_LIKE) / 2.0, rel=1e-12)


def test_force_balance_mobility_round_trip():
    # u = mu * E must balance the electric force against the collision drag.
    mu = mobility_from_force_balance(NITROGEN_LIKE)
    e_field = np.array([0.0, 0.0, 1.0e4])
    drift = mu * e_field
    electric = e_field * NITROGEN_LIKE.ion_density * NITROGEN_LIKE.ion_charge
    assert np.allclose(collision_force_density(NITROGEN_LIKE, drift), electric, rtol=1e-12)


def test_einstein_diffusivity():
    d = einstein_diffusivity(2.0e-4, 300.0, 1.602176634e-19)
    assert d == pytest.approx(5.170399957287107e-06, rel=1e-12)
    assert einstein_diffusivity(0.0, 300.0, 1.6e-19) == 0.0
    assert einstein_diffusivity(2.0e-4, 600.0, 1.602176634e-19) == pytest.approx(2.0 * d, rel=1e-12)


def test_thrust_from_current_basics():
    assert thrust_from_current(0.03, 0.0, 2.0e-4) == 0.0
    t1 = thrust_from_current(0.03, 1.0e-4, 2.0e-4)
    assert type(t1) is float
    assert thrust_from_current(0.06, 1.0e-4, 2.0e-4) == pytest.approx(2.0 * t1, rel=1e-14)
    assert thrust_from_current(0.03, 2.0e-4, 2.0e-4) == pytest.approx(2.0 * t1, rel=1e-14)
    # The magnitude gap * current / mobility: 0.34 mA across the 3 cm gap gives the measured 0.051 N maximum.
    assert thrust_from_current(0.03, 3.4e-4, DEFAULT_ION_MOBILITY) == pytest.approx(0.051, rel=1e-12)


def test_throttle_map_sample_points_exact():
    for frac, grams in zip(THROTTLE_MAP.inputs, THROTTLE_MAP.thrust_grams):
        assert throttle_to_thrust(THROTTLE_MAP, frac) == grams_force_to_newtons(grams)
    assert throttle_to_thrust(THROTTLE_MAP, 1.0) == pytest.approx(1.20e-3 * STANDARD_GRAVITY)


def test_throttle_interpolation_midpoint():
    # halfway between the 90% (1.16 g) and 100% (1.20 g) samples
    assert throttle_to_thrust(THROTTLE_MAP, 0.95) == pytest.approx(
        grams_force_to_newtons(1.18), rel=1e-12
    )


def test_throttle_below_corona_onset_clamps_to_zero():
    assert throttle_to_thrust(THROTTLE_MAP, 0.10) == 0.0
    assert throttle_to_thrust(THROTTLE_MAP, 0.0) == 0.0


def test_throttle_out_of_range():
    with pytest.raises(OutOfRange):
        throttle_to_thrust(THROTTLE_MAP, -0.01)
    with pytest.raises(OutOfRange):
        throttle_to_thrust(THROTTLE_MAP, 1.01)


@pytest.mark.parametrize("throttle", [-0.01, 1.5, float("nan")])
def test_any_map_is_queried_for_a_throttle_on_zero_one(throttle):
    # A throttle fraction is on [0, 1] whatever inputs a map was measured at; inside it the map clamps.
    tmap = ThrustMap(inputs=(0.3, 0.6), thrust_grams=(0.0, 1.0))
    with pytest.raises(OutOfRange, match=f"^{re.escape(f'throttle {throttle} outside [0.0, 1.0]')}$"):
        throttle_to_thrust(tmap, throttle)
    assert throttle_to_thrust(tmap, 0.0) == 0.0
    assert throttle_to_thrust(tmap, 1.0) == grams_force_to_newtons(1.0)


def test_throttle_map_monotone_non_decreasing():
    grid = np.linspace(0.0, 1.0, 301)
    vals = [throttle_to_thrust(THROTTLE_MAP, x) for x in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_spacing_map_sample_points_exact():
    for spacing, grams in zip(SPACING_MAP_DUAL_RING.inputs, SPACING_MAP_DUAL_RING.thrust_grams):
        assert spacing_to_thrust(SPACING_MAP_DUAL_RING, spacing) == grams_force_to_newtons(grams)


def test_spacing_puncture_fault():
    with pytest.raises(PunctureFault):
        spacing_to_thrust(SPACING_MAP_DUAL_RING, 0.025)
    with pytest.raises(PunctureFault):
        spacing_to_thrust(SPACING_MAP_DUAL_RING, 0.020)


def test_spacing_extrapolation_below_samples_is_flagged():
    with pytest.warns(ExtrapolatedThrustWarning):
        val = spacing_to_thrust(SPACING_MAP_DUAL_RING, 0.028)
    # nearest-segment slope extended: 1.16 g + (-0.002 m)(-12 g/m) = 1.184 g
    assert val == pytest.approx(grams_force_to_newtons(1.184), rel=1e-10)


def test_spacing_monotone_non_increasing():
    grid = np.linspace(0.030, 0.055, 101)
    vals = [spacing_to_thrust(SPACING_MAP_DUAL_RING, x) for x in grid]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_thrust_to_weight_cases():
    assert thrust_to_weight(0.051, QUAD_RING.dry_mass) == pytest.approx(2.597, rel=1e-3)
    assert thrust_to_weight(0.011368, DUAL_RING.dry_mass) == pytest.approx(0.7105, rel=1e-3)
    assert thrust_to_weight(0.0, 0.02) == 0.0
    with pytest.raises(ValueError):
        thrust_to_weight(0.05, 0.0)


def test_thrust_map_file_round_trip(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text(dump_thrust_map(THROTTLE_MAP), encoding="utf-8")
    data = np.loadtxt(path, comments="#", ndmin=2)
    loaded = ThrustMap(inputs=tuple(data[:, 0].tolist()), thrust_grams=tuple(data[:, 1].tolist()))
    assert loaded.inputs == THROTTLE_MAP.inputs
    assert loaded.thrust_grams == THROTTLE_MAP.thrust_grams
    assert throttle_to_thrust(loaded, 0.95) == throttle_to_thrust(THROTTLE_MAP, 0.95)


def test_thrust_map_validation():
    with pytest.raises(ValueError):
        ThrustMap(inputs=(0.2, 0.1), thrust_grams=(0.0, 1.0))
    with pytest.raises(ValueError):
        ThrustMap(inputs=(0.1, 0.2), thrust_grams=(0.0, -1.0))
    with pytest.raises(ValueError):
        ThrustMap(inputs=(0.1,), thrust_grams=(0.0,))


def test_gas_params_validation():
    with pytest.raises(ValueError):
        GasIonParams(
            ion_mass=0.0, neutral_mass=4.65e-26, temperature=300.0,
            ion_charge=1.6e-19, cross_section=1e-19, ion_density=1e15, neutral_density=2.5e25,
        )


def test_geometry_presets():
    assert QUAD_RING.dry_mass == pytest.approx(0.01964)
    with pytest.raises(ValueError, match="^dry_mass must be positive and finite, got 0.0$"):  # thrust_to_weight divides by it
        type(QUAD_RING)(electrode_gap=0.03, dry_mass=0.0)
