"""The package's lazy export table: every name it exports resolves, and the frames names are their module's alone."""

import importlib

import pytest

import ionblimp

# The public names ``ionblimp`` exported when it imported every submodule eagerly, less FRAMES.
EXPORTS = {
    "buoyancy": ["EnvelopeGeometry", "LiftBudget", "ellipsoid_volume", "lift_budget"],
    "dynamics": ["AirshipParams", "BodyState", "ThrusterCommand", "aero_wrench", "full_derivatives",
                 "gravity_buoyancy_wrench", "planar_derivatives", "thruster_wrench"],
    "harness": ["Scenario", "SimRecord", "SimResult", "integrate_step", "load_scenario", "run_scenario"],
    "inner_loop": ["InnerLoopConfig", "LinearModel", "LyapunovCertificate", "closed_loop_vr", "design_ku_unity_dc",
                   "kw_lower_bound", "linearize", "lyapunov_certify", "search_stabilizing_gains", "step_response"],
    "smc": ["ReferenceTrajectory", "SmcGains", "SmcModel", "TrackingError", "allocate_actuation",
            "lyapunov_monitor", "sliding_surface", "smc_control"],
    "thruster": ["DUAL_RING", "QUAD_RING", "SPACING_MAP_DUAL_RING", "THROTTLE_MAP", "GasIonParams", "PunctureFault",
                 "ThrustMap", "ThrusterGeometry", "collision_force_density", "collision_force_density_mc",
                 "einstein_diffusivity", "ion_mobility", "spacing_to_thrust", "throttle_to_thrust",
                 "thrust_from_current", "thrust_to_weight"],
}
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]
# frames' matrix-form names: only the benchmark's tracer and the test oracles use them, by module path.
FRAMES = ["FlowAngles", "airflow_to_body", "flow_angles_from_velocity", "ground_to_body"]


@pytest.mark.parametrize("module, name", PAIRS)
def test_export_is_its_module_attribute(module, name):
    assert getattr(ionblimp, name) is getattr(importlib.import_module(f"ionblimp.{module}"), name)


@pytest.mark.parametrize("name", FRAMES)
def test_frames_name_is_its_modules_alone(name):
    namespace = {}
    exec(f"from ionblimp.frames import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module("ionblimp.frames"), name)
    assert name not in ionblimp.__all__ and not hasattr(ionblimp, name)


def test_star_import_gives_every_export():
    namespace = {}
    exec("from ionblimp import *", namespace)
    assert sorted(ionblimp.__all__) == sorted(name for _, name in PAIRS)
    for module, name in PAIRS:
        assert namespace[name] is getattr(importlib.import_module(f"ionblimp.{module}"), name), name


def test_submodules_and_unknown_names():
    assert ionblimp.thruster is importlib.import_module("ionblimp.thruster")
    assert ionblimp.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ionblimp.no_such_name  # noqa: B018
