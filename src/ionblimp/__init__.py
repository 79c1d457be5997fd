"""Flight dynamics and controller synthesis for an ionic-wind thrust-vectored blimp.

Each public name is imported from its submodule on first use (PEP 562), so
``import ionblimp`` loads no submodule and no numpy.
"""

import importlib

# Each submodule and the public names it defines.
_EXPORTS = {
    "buoyancy": "EnvelopeGeometry LiftBudget ellipsoid_volume lift_budget",
    "dynamics": "AirshipParams BodyState ThrusterCommand aero_wrench full_derivatives gravity_buoyancy_wrench"
                " planar_derivatives thruster_wrench",
    "harness": "Scenario SimRecord SimResult integrate_step load_scenario run_scenario",
    "inner_loop": "InnerLoopConfig LinearModel LyapunovCertificate closed_loop_vr design_ku_unity_dc kw_lower_bound"
                  " linearize lyapunov_certify search_stabilizing_gains step_response",
    "smc": "ReferenceTrajectory SmcGains SmcModel TrackingError allocate_actuation lyapunov_monitor sliding_surface"
           " smc_control",
    "thruster": "DUAL_RING QUAD_RING SPACING_MAP_DUAL_RING THROTTLE_MAP GasIonParams PunctureFault ThrustMap"
                " ThrusterGeometry collision_force_density collision_force_density_mc einstein_diffusivity"
                " ion_mobility spacing_to_thrust throttle_to_thrust thrust_from_current thrust_to_weight",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
