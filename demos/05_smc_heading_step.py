"""Sliding-mode heading step: reaching phase, sliding phase, actuator view.

Commands a 0.5 rad heading step and tracks the sliding variable through the
exponential reaching law. The run also records what the single vectored
thruster would have to do to realize the commanded generalized forces, with
any shortfall reported as a residual instead of being hidden. The scenario
is scenarios/heading_step.cfg.
"""

from pathlib import Path

from ionblimp import load_scenario, run_scenario
from ionblimp.smc import reaching_time_bound

scenario = load_scenario(Path(__file__).resolve().parent / "scenarios" / "heading_step.cfg")
gains = scenario.smc.gains
result = run_scenario(scenario)
summary = result.summary

print("initial sliding variable |s0|: %.3f" % summary["s0_inf"])
print("analytic reaching bound:       %.3f s" % summary["reaching_bound"])
print("measured |s| < 1e-3 at:        %.3f s" % summary["reaching_time"])
print("final heading error:           %.2e rad" % abs(result.records[-1].psi - 0.5))
print("final Lyapunov energy:         %.2e" % summary["s_energy_final"])
print()

print("   t     psi      s_psi        V        V_dot")
for rec in result.records[:: int(1.0 / scenario.dt)]:
    print("%5.1f  %6.3f  %+9.2e  %9.2e  %+9.2e"
          % (rec.t, rec.psi, rec.s[2], rec.lyap_v, rec.lyap_vdot))
print()

# reaching-law theory for the yaw channel
s0 = 0.5 * gains.c1
print("theory: |s(t)| = (|s0| + eps/k) exp(-k t) - eps/k until the surface,")
print("        arrival no later than %.3f s" % reaching_time_bound(gains, s0))
