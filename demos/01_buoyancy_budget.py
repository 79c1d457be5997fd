"""Lift budget of the 1.97 m helium envelope, and why it tilts back level.

Walks the static side of the vehicle: how much the ellipsoid displaces,
what that buys in payload, and the pendulum moment that keeps the hull
upright without any active control.
"""

import math

import numpy as np

from ionblimp import (
    AirshipParams,
    EnvelopeGeometry,
    gravity_buoyancy_wrench,
    lift_budget,
)

# ---------------------------------------------------------------------------
# Envelope: 1.97 m long, 51 cm max diameter, 79.36 g of aluminized film.
# ---------------------------------------------------------------------------
geom = EnvelopeGeometry(
    semi_axis_a=0.985, semi_axis_b=0.255, semi_axis_c=0.255, envelope_mass=0.07936
)
budget = lift_budget(geom)  # 1.11 g of lift per liter of helium

print("envelope volume:   %.2f L" % (budget.volume_m3 * 1000))
print("gross lift:        %.1f g" % (budget.gross_lift_kg * 1000))
print("net lift:          %.1f g  (after envelope mass)" % (budget.net_lift_kg * 1000))
print()

# The remaining budget must cover gondola, gimbal, thruster, battery and
# electronics. The quad-ring thruster alone is 19.64 g.
payload = {
    "thruster (quad ring)": 19.64,
    "gimbal + servos": 33.0,
    "battery": 42.5,
}
running = budget.net_lift_kg * 1000
for item, grams in payload.items():
    running -= grams
    print("after %-22s %7.2f g left" % (item + ":", running))
print()

# ---------------------------------------------------------------------------
# Pendulum stability: the center of buoyancy sits above the center of mass,
# so tilting the hull produces a moment that pushes it back level.
# ---------------------------------------------------------------------------
params = AirshipParams(mass=0.2978, cb_offset=0.20)
print("pitch angle -> restoring moment about body y:")
for theta_deg in (2, 5, 10, 20):
    theta = np.radians(theta_deg)
    wrench = gravity_buoyancy_wrench(params, 1.0, 0.0, math.cos(theta), math.sin(theta))
    print("  theta = %4.1f deg   M_y = %+.4f N m" % (theta_deg, wrench[4]))
print("(negative moment opposes positive pitch: statically stable)")
