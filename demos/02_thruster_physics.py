"""Ionic-wind thruster: kinetic closed forms against the sampled integral,
plus the bench-measured thrust maps.

The momentum exchanged between drifting ions and neutral air has an exact
small-drift closed form. Here we check it against a brute-force Monte-Carlo
average over both Maxwellian populations, then look at what the hardware
actually measured.
"""

from ionblimp import (
    DUAL_RING,
    QUAD_RING,
    SPACING_MAP_DUAL_RING,
    THROTTLE_MAP,
    GasIonParams,
    collision_force_density,
    collision_force_density_mc,
    einstein_diffusivity,
    ion_mobility,
    spacing_to_thrust,
    throttle_to_thrust,
    thrust_from_current,
    thrust_to_weight,
)
from ionblimp.thruster import DEFAULT_ION_MOBILITY, mobility_from_force_balance

# ---------------------------------------------------------------------------
# Closed form vs sampled collision integral (nitrogen-like numbers).
# ---------------------------------------------------------------------------
gas = GasIonParams(
    ion_mass=4.65e-26, neutral_mass=4.65e-26, temperature=300.0,
    ion_charge=1.602176634e-19, cross_section=1e-19,
    ion_density=1e15, neutral_density=2.5e25,
)
slip = [100.0, 0.0, 0.0]
closed = collision_force_density(gas, slip)
sampled = collision_force_density_mc(gas, slip, n_samples=2_000_000, seed=1)
print("force density, closed form:  %10.4f N/m^3" % closed[0])
print("force density, Monte-Carlo:  %10.4f N/m^3 (2e6 samples)" % sampled[0])
print("relative difference:         %10.2e" % (abs(sampled[0] - closed[0]) / closed[0]))
print()

# Mobility: the kinetic definition is kept verbatim even though its
# cross-section placement disagrees with the force balance; the balance
# form (cross section dividing) is what round-trips, and a measured value
# is what actually gets used downstream.
print("mobility, kinetic definition verbatim: %.3e m^2/(V s)" % ion_mobility(gas))
print("mobility, from force balance:          %.3e m^2/(V s)" % mobility_from_force_balance(gas))
print("mobility, measured default:            %.3e m^2/(V s)" % DEFAULT_ION_MOBILITY)
print("diffusivity at 300 K (Einstein):       %.3e m^2/s" %
      einstein_diffusivity(DEFAULT_ION_MOBILITY, 300.0, 1.602176634e-19))
print()

# Gap-current thrust law: invert it at the measured 0.051 N maximum to see
# the implied corona current.
gap = QUAD_RING.electrode_gap
for current_ma in (0.1, 0.2, 0.34, 0.5):
    t = thrust_from_current(gap, current_ma * 1e-3, DEFAULT_ION_MOBILITY)
    print("I = %.2f mA  ->  |T| = %.4f N" % (current_ma, t))
print("(0.34 mA reproduces the measured 0.051 N maximum)")
print()

# ---------------------------------------------------------------------------
# Bench maps. Throttle sweep on the quad ring, spacing sweep on the dual ring.
# ---------------------------------------------------------------------------
print("throttle -> thrust (quad ring):")
for throttle in (0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0):
    print("  %4.0f%%  %8.5f N" % (throttle * 100, throttle_to_thrust(THROTTLE_MAP, throttle)))
print()
print("spacing -> thrust (dual ring):")
for spacing_cm in (5.0, 4.0, 3.5, 3.0):
    t = spacing_to_thrust(SPACING_MAP_DUAL_RING, spacing_cm / 100)
    print("  %.1f cm  %8.5f N" % (spacing_cm, t))
print("  2.5 cm  -> PunctureFault (tip discharge burns the foil)")
print()
print("thrust-to-weight, quad ring at 0.051 N: %.3f N/kg" %
      thrust_to_weight(0.051, QUAD_RING.dry_mass))
print("thrust-to-weight, dual ring at best:    %.3f N/kg" %
      thrust_to_weight(0.7105 * DUAL_RING.dry_mass, DUAL_RING.dry_mass))
