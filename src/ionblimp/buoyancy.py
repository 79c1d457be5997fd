"""Envelope geometry and helium lift budget.

The envelope is approximated as an ellipsoid. The static wrench that keeps
the hull upright (net lift plus the pendulum moment of the center of
buoyancy sitting above the center of mass) is
``dynamics.gravity_buoyancy_wrench``.
"""

import math
from dataclasses import dataclass

from .dynamics import store_floats

# Buoyant lift of helium at room conditions, kg per liter of displaced air.
DEFAULT_LIFT_PER_LITER = 0.00111


@dataclass(frozen=True)
class EnvelopeGeometry:
    """Ellipsoid semi-axes (m) and envelope fabric mass (kg)."""

    semi_axis_a: float
    semi_axis_b: float
    semi_axis_c: float
    envelope_mass: float = 0.0

    def __post_init__(self):
        store_floats(self)
        if min(self.semi_axis_a, self.semi_axis_b, self.semi_axis_c) <= 0.0:
            raise ValueError("all semi-axes must be positive")
        if self.envelope_mass < 0.0:
            raise ValueError("envelope_mass must be non-negative")


@dataclass(frozen=True)
class LiftBudget:
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
    if not lift_per_liter > 0.0:  # nan is refused too
        raise ValueError("lift_per_liter must be positive")
    volume = ellipsoid_volume(geom)
    gross = volume * 1000.0 * lift_per_liter
    return LiftBudget(volume_m3=volume, gross_lift_kg=gross, net_lift_kg=gross - geom.envelope_mass)
