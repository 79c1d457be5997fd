"""Open-loop planar cruise: constant bench-scale thrust until drag balances.

Reproduces the character of the low-altitude flight test: with roughly one
gram-force of thrust the vehicle works up to a steady fraction of a meter
per second. The folded drag coefficient here is tuned so the terminal speed
lands near the observed 0.32 m/s.
"""

import numpy as np

from ionblimp import AirshipParams, BodyState, run_scenario
from ionblimp.harness import OpenLoopCommand, Scenario

params = AirshipParams(drag_coeff=0.1848)  # tuned: 2T/(rho u*^2) at u* = 0.32
scenario = Scenario(
    params=params,
    initial=BodyState(h=1.8),
    model="planar",
    controller="open_loop",
    duration=35.0,
    dt=0.01,
    open_loop=OpenLoopCommand(thrust=0.0114),  # the 100%-throttle bench reading
)
result = run_scenario(scenario)

print("thrust:            %.4f N" % 0.0114)
print("steady speed:      %.3f m/s" % result.summary["steady_speed"])
print("max speed:         %.3f m/s" % result.summary["max_speed"])
print("distance covered:  %.1f m in %.0f s" % (result.records[-1].x, scenario.duration))
print()

# speed build-up, sampled every 5 s
print("   t      u")
for rec in result.records[:: int(5.0 / scenario.dt)]:
    print("%5.1f  %.3f" % (rec.t, rec.u))

# sanity: the analytic terminal speed of u' = (T - 0.5 rho C_D u^2)/m
terminal = np.sqrt(2 * 0.0114 / (params.air_density * params.drag_coeff))
print()
print("analytic terminal speed: %.3f m/s" % terminal)
