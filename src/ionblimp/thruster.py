"""Ionic-wind thruster physics and measured thrust maps.

Two complementary views of the same device live here:

* Kinetic closed forms for the ion/neutral momentum exchange in the drift
  region (collision force density, mobility, diffusivity, and the
  gap-current thrust law), and a seeded Monte-Carlo evaluator of the
  double-Maxwellian collision integral that samples the ion/neutral relative
  velocity directly, in antithetic pairs, independent of the closed form so
  each can check the other.
* Empirical thrust maps measured on the bench: thrust vs throttle for the
  quad-ring build and thrust vs electrode spacing for the dual-ring build.
  The two data sets come from different hardware generations and must not
  be mixed in one map.
"""

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .constants import BOLTZMANN, STANDARD_GRAVITY
from .dynamics import _floats, check_sign, store_floats

# Typical positive air-ion mobility, m^2/(V s). Used wherever a numeric
# mobility is needed; the kinetic formula needs a cross-section value the
# bench work never pinned down.
DEFAULT_ION_MOBILITY = 2.0e-4

# Electrode gaps at or below this distance arc through the collector foil.
PUNCTURE_SPACING = 0.025


class OutOfRange(ValueError):
    """A throttle fraction outside [0, 1]."""


class PunctureFault(RuntimeError):
    """Electrode gap small enough to burn through the collector foil."""


class ExtrapolatedThrustWarning(UserWarning):
    """Thrust was extrapolated outside the measured sample range."""


@dataclass(frozen=True)
class GasIonParams:
    """Kinetic parameters of the ion and neutral populations (SI units)."""

    ion_mass: float  # kg
    neutral_mass: float  # kg
    temperature: float  # K
    ion_charge: float  # C
    cross_section: float  # m^2, momentum-transfer collision cross section
    ion_density: float  # 1/m^3
    neutral_density: float  # 1/m^3

    def __post_init__(self):
        store_floats(self, positive=[f.name for f in fields(self)])

    @property
    def reduced_mass(self) -> float:
        return self.ion_mass * self.neutral_mass / (self.ion_mass + self.neutral_mass)


@dataclass(frozen=True)
class ThrusterGeometry:
    """Ring-thruster build geometry and dry mass."""

    electrode_gap: float  # m, emitter wire to collector foil
    dry_mass: float  # kg

    def __post_init__(self):
        store_floats(self, positive=("electrode_gap", "dry_mass"))  # thrust_to_weight divides by dry_mass


# Final quad-ring flight build: 3.0 cm gap (the 2.5 cm gap of the data sheet
# punctures; the flight configuration settled on 3.0 cm).
QUAD_RING = ThrusterGeometry(electrode_gap=0.030, dry_mass=0.01964)

# Dual-ring spacing-sweep build; nominal 25 mm gap, swept 2.5-5.0 cm on the bench.
DUAL_RING = ThrusterGeometry(electrode_gap=0.025, dry_mass=0.01600)


def collision_force_density(p: GasIonParams, slip_velocity) -> np.ndarray:
    """Closed-form momentum exchange rate between ions and neutrals, N/m^3.

    f = (64/9) * Omega_D * sqrt(kT / 2pi) * sqrt(m M / (m + M))
        * n_ion * n_air * u

    where u is the mean slip velocity between the two populations. The
    result is exactly linear in u; it is the small-drift limit of the full
    collision integral (see collision_force_density_mc), accurate to about
    (|u| / thermal speed)^2 / 10 in relative terms.
    """
    u = np.asarray(slip_velocity, dtype=float).reshape(3)
    coeff = (
        64.0 / 9.0
        * p.cross_section
        * np.sqrt(BOLTZMANN * p.temperature / (2.0 * np.pi))
        * np.sqrt(p.reduced_mass)
        * p.ion_density
        * p.neutral_density
    )
    return coeff * u


def collision_force_density_mc(
    p: GasIonParams,
    slip_velocity,
    n_samples: int = 10_000_000,
    seed: int = 0,
    chunk: int = 1_000_000,
) -> np.ndarray:
    """Monte-Carlo evaluation of the hard-sphere collision integral, N/m^3.

    Averages Omega_D * |g| * (4/3) * (m M / (m + M)) * g over g = v_air - v_ion,
    scaled by the two number densities. g, the difference of a Maxwellian
    drifting at the slip u and a zero-mean one, is Gaussian with mean u and
    per-axis variance kT (1/M + 1/m), so it is sampled directly, in antithetic
    pairs u + d and u - d drawn from one stream whatever the chunk size. Both
    norms come from one expansion, |u +- d|^2 = |d|^2 + |u|^2 +- 2 u.d, computed
    in one set of buffers allocated per call, so u = 0 gives exactly zero.
    Deterministic for a fixed seed and sample count; the independent oracle for
    collision_force_density, kept free of that closed form.
    """
    for name, value in (("n_samples", n_samples), ("chunk", chunk)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    u = np.asarray(slip_velocity, dtype=float).reshape(3)
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(BOLTZMANN * p.temperature * (1.0 / p.neutral_mass + 1.0 / p.ion_mass))
    total, u_sq, two_u = np.zeros(3), u @ u, 2.0 * u
    pairs, step = (n_samples + 1) // 2, (chunk + 1) // 2
    size = min(step, pairs)
    d_buf, (base_buf, cross_buf, plus_buf) = np.empty((size, 3)), np.empty((3, size))
    for start in range(0, pairs, step):
        m = min(step, pairs - start)
        d, base, cross, s_plus = d_buf[:m], base_buf[:m], cross_buf[:m], plus_buf[:m]
        rng.standard_normal(out=d)
        d *= sigma
        np.einsum("ij,ij->i", d, d, out=base)
        base += u_sq
        np.matmul(d, two_u, out=cross)
        # |u + d|^2 = |d|^2 + |u|^2 + 2 u.d. Rounding takes a square below zero (and
        # its root to nan) only for u + d within about 1e-8 (|u| + |d|) of zero: no real draw.
        np.add(base, cross, out=s_plus)
        np.sqrt(s_plus, out=s_plus)
        s_minus = np.subtract(base, cross, out=base)  # |u - d|^2
        np.sqrt(s_minus, out=s_minus)
        if start + step >= pairs and n_samples % 2:
            s_minus[-1] = 0.0  # an odd n_samples averages the last draw without its mirror
        total += np.add(s_plus, s_minus, out=cross).sum() * u + np.subtract(s_plus, s_minus, out=cross) @ d
    mean = total / n_samples
    return p.cross_section * (4.0 / 3.0) * p.reduced_mass * p.ion_density * p.neutral_density * mean


def _drift_factor(p: GasIonParams) -> float:
    """(9/64) * (q / n_air) * sqrt(2 pi / kT) * sqrt(1/m + 1/M): both mobility forms before Omega_D."""
    return (
        9.0 / 64.0
        * (p.ion_charge / p.neutral_density)
        * np.sqrt(2.0 * np.pi / (BOLTZMANN * p.temperature))
        * np.sqrt(1.0 / p.ion_mass + 1.0 / p.neutral_mass)
    )


def ion_mobility(p: GasIonParams) -> float:
    """Ion mobility, m^2/(V s).

    Implements the kinetic definition verbatim:

        mu_i = (9/64) * (q / n_air) * sqrt(2 pi / kT)
               * sqrt(1/m + 1/M) * Omega_D

    As written the cross section multiplies the mobility; dimensional
    analysis (more collisions should mean lower mobility) suggests it
    should divide instead, see mobility_from_force_balance. Both are
    exposed rather than silently reconciled; where a numeric mobility is
    needed, use a measured one such as DEFAULT_ION_MOBILITY.
    """
    return _drift_factor(p) * p.cross_section


def mobility_from_force_balance(p: GasIonParams) -> float:
    """Mobility implied by balancing the electric force against collisions.

    Setting E * n_ion * q equal to the closed-form collision force and
    solving for u = mu * E gives

        mu = (9/64) * (q / n_air) * sqrt(2 pi / kT)
             * sqrt(1/m + 1/M) / Omega_D

    i.e. the verbatim kinetic definition with the cross section moved to
    the denominator. This form round-trips exactly against
    collision_force_density.
    """
    return _drift_factor(p) / p.cross_section


def einstein_diffusivity(mobility: float, temperature: float, charge: float) -> float:
    """Ion diffusivity from the Einstein relation: D = mu * kT / q, m^2/s."""
    check_sign("mobility", mobility, positive=False)
    check_sign("temperature", temperature)
    check_sign("charge", charge)
    return _floats(f"diffusivity at mobility={mobility!r}, temperature={temperature!r}, charge={charge!r}",
                   mobility * BOLTZMANN * temperature / charge, False)


def thrust_from_current(gap: float, current: float, mobility: float) -> float:
    """Drift-region thrust magnitude for a given gap and corona current, N.

    |T| = gap * current / mobility, linear in both gap and current. The
    thrust points from the negative electrode toward the positive one.
    """
    check_sign("gap", gap)
    check_sign("current", current, positive=False)
    check_sign("mobility", mobility)
    return gap * current / mobility


@dataclass(frozen=True)
class ThrustMap:
    """Measured (input, thrust-grams) samples with linear interpolation.

    Inputs must be strictly increasing; thrust readings are grams-force as
    read off the bench scale.
    """

    inputs: tuple
    thrust_grams: tuple

    def __post_init__(self):
        store_floats(self, tables=("inputs", "thrust_grams"), non_negative=("thrust_grams",))
        if len(self.inputs) != len(self.thrust_grams) or len(self.inputs) < 2:
            raise ValueError("need at least two (input, thrust) samples")
        if any(b <= a for a, b in zip(self.inputs, self.inputs[1:])):
            raise ValueError("inputs must be strictly increasing")


# Quad-ring thrust vs throttle fraction. Below 20% throttle the corona has
# not struck and the thrust is zero.
THROTTLE_MAP = ThrustMap(
    inputs=(0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00),
    thrust_grams=(0.00, 0.06, 0.12, 0.31, 0.45, 0.58, 0.70, 1.16, 1.20),
)

# Dual-ring thrust vs electrode spacing (m). 2.5 cm punctured the foil.
SPACING_MAP_DUAL_RING = ThrustMap(
    inputs=(0.030, 0.035, 0.040, 0.045, 0.050),
    thrust_grams=(1.16, 1.10, 0.99, 0.90, 0.80),
)


def grams_force_to_newtons(grams: float) -> float:
    return grams * 1e-3 * STANDARD_GRAVITY


def throttle_to_thrust(tmap: ThrustMap, throttle: float) -> float:
    """Thrust in newtons for a throttle fraction in [0, 1].

    Piecewise-linear between samples; throttle below the first sample
    clamps to zero thrust (corona-onset threshold). Raises OutOfRange
    outside [0, 1].
    """
    if not 0.0 <= throttle <= 1.0:  # nan is refused too
        raise OutOfRange(f"throttle {throttle} outside [0.0, 1.0]")
    return grams_force_to_newtons(float(np.interp(throttle, tmap.inputs, tmap.thrust_grams)))


def spacing_to_thrust(tmap: ThrustMap, spacing: float) -> float:
    """Thrust in newtons for an electrode spacing in meters.

    Raises PunctureFault at or below 2.5 cm (tip discharge burns the foil).
    Between the puncture limit and the first measured sample the nearest
    segment is extended linearly and an ExtrapolatedThrustWarning is
    issued; beyond the last sample the value clamps to the final reading.
    """
    check_sign("spacing", spacing)
    if spacing <= PUNCTURE_SPACING:
        raise PunctureFault(
            f"spacing {spacing:.4f} m <= {PUNCTURE_SPACING} m: foil puncture"
        )
    if spacing < tmap.inputs[0]:
        x0, x1 = tmap.inputs[0], tmap.inputs[1]
        g0, g1 = tmap.thrust_grams[0], tmap.thrust_grams[1]
        grams = g0 + (spacing - x0) * (g1 - g0) / (x1 - x0)
        warnings.warn(
            f"spacing {spacing:.4f} m below measured range, thrust extrapolated",
            ExtrapolatedThrustWarning,
            stacklevel=2,
        )
    else:
        grams = float(np.interp(spacing, tmap.inputs, tmap.thrust_grams))
    return grams_force_to_newtons(max(grams, 0.0))


def thrust_to_weight(thrust: float, dry_mass: float) -> float:
    """Thrust-to-weight figure of merit in N/kg."""
    check_sign("dry_mass", dry_mass)
    return _floats(f"thrust_to_weight at thrust={thrust!r}, dry_mass={dry_mass!r}", thrust / dry_mass, False)


def dump_thrust_map(tmap: ThrustMap) -> str:
    """Serialize a ThrustMap as two-column (input, thrust-grams) text under a '#' header line."""
    lines = ["# input  thrust_grams"]
    for x, g in zip(tmap.inputs, tmap.thrust_grams):
        lines.append(f"{x!r}  {g!r}")
    return "\n".join(lines) + "\n"
