"""Open-loop planar cruise: constant bench-scale thrust until drag balances.

Reproduces the character of the low-altitude flight test: with roughly one
gram-force of thrust the vehicle works up to a steady fraction of a meter
per second. The folded drag coefficient in scenarios/cruise.cfg, 2T/(rho u*^2)
at u* = 0.32 with T the 100%-throttle bench reading, puts the terminal speed
near the observed 0.32 m/s.
"""

from pathlib import Path

import numpy as np

from ionblimp import load_scenario, run_scenario

scenario = load_scenario(Path(__file__).resolve().parent / "scenarios" / "cruise.cfg")
params, thrust = scenario.params, scenario.open_loop.thrust
result = run_scenario(scenario)

print("thrust:            %.4f N" % thrust)
print("steady speed:      %.3f m/s" % result.summary["steady_speed"])
print("max speed:         %.3f m/s" % result.summary["max_speed"])
print("distance covered:  %.1f m in %.0f s" % (result.records[-1].x, scenario.duration))
print()

# speed build-up, sampled every 5 s
print("   t      u")
for rec in result.records[:: int(5.0 / scenario.dt)]:
    print("%5.1f  %.3f" % (rec.t, rec.u))

# sanity: the analytic terminal speed of u' = (T - 0.5 rho C_D u^2)/m
terminal = np.sqrt(2 * thrust / (params.air_density * params.drag_coeff))
print()
print("analytic terminal speed: %.3f m/s" % terminal)
