"""Flight dynamics and controller synthesis for an ionic-wind thrust-vectored blimp."""

from .buoyancy import EnvelopeGeometry, LiftBudget, ellipsoid_volume, lift_budget
from .dynamics import (
    AirshipParams,
    BodyState,
    ThrusterCommand,
    aero_wrench,
    full_derivatives,
    gravity_buoyancy_wrench,
    planar_derivatives,
    thruster_wrench,
)
from .frames import (
    AttitudeAngles,
    FlowAngles,
    airflow_to_body,
    flow_angles_from_velocity,
    ground_to_body,
)
from .harness import Scenario, SimRecord, SimResult, integrate_step, load_scenario, run_scenario
from .inner_loop import (
    InnerLoopConfig,
    LinearModel,
    LyapunovCertificate,
    closed_loop_vr,
    design_ku_unity_dc,
    kw_lower_bound,
    linearize,
    lyapunov_certify,
    search_stabilizing_gains,
    step_response,
)
from .smc import (
    ReferenceTrajectory,
    SmcGains,
    SmcModel,
    TrackingError,
    allocate_actuation,
    lyapunov_monitor,
    sliding_surface,
    smc_control,
)
from .thruster import (
    DUAL_RING,
    QUAD_RING,
    SPACING_MAP_DUAL_RING,
    THROTTLE_MAP,
    GasIonParams,
    PunctureFault,
    ThrustMap,
    ThrusterGeometry,
    collision_force_density,
    collision_force_density_mc,
    einstein_diffusivity,
    ion_mobility,
    spacing_to_thrust,
    throttle_to_thrust,
    thrust_from_current,
    thrust_to_weight,
)

__version__ = "0.1.0"
