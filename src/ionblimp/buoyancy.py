"""Envelope geometry and helium lift budget.

The envelope is approximated as an ellipsoid. The static wrench that keeps
the hull upright (net lift plus the pendulum moment of the center of
buoyancy sitting above the center of mass) is
``dynamics.gravity_buoyancy_wrench``.
"""

import math

from .dynamics import Record, check_sign, store_floats

# Buoyant lift of helium at room conditions, kg per liter of displaced air.
DEFAULT_LIFT_PER_LITER = 0.00111


class EnvelopeGeometry(Record):
    """Ellipsoid semi-axes (m) and envelope fabric mass (kg)."""

    semi_axis_a: float
    semi_axis_b: float
    semi_axis_c: float
    envelope_mass: float = 0.0

    def __post_init__(self):
        store_floats(self, positive=("semi_axis_a", "semi_axis_b", "semi_axis_c"), non_negative=("envelope_mass",))


class LiftBudget(Record):
    """Envelope volume and the gross/net lifting capacity in kg."""

    volume_m3: float
    gross_lift_kg: float
    net_lift_kg: float


def ellipsoid_volume(geom: EnvelopeGeometry) -> float:
    """Envelope volume (m^3): V = 4/3 * pi * a * b * c."""
    return 4.0 / 3.0 * math.pi * geom.semi_axis_a * geom.semi_axis_b * geom.semi_axis_c


def lift_budget(geom: EnvelopeGeometry, lift_per_liter: float = DEFAULT_LIFT_PER_LITER) -> LiftBudget:
    """Gross and net lifting capacity of the envelope.

    lift_per_liter is in kg/L (default 1.11 g/L); net lift subtracts the
    envelope fabric mass. A negative net lift is reported, not raised:
    simulations may deliberately run heavy.
    """
    check_sign("lift_per_liter", lift_per_liter)
    volume = ellipsoid_volume(geom)
    gross = volume * 1000.0 * lift_per_liter
    return LiftBudget(volume_m3=volume, gross_lift_kg=gross, net_lift_kg=gross - geom.envelope_mass)
