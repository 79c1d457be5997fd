"""Matrix formulation of the rigid-body derivative fields, kept as a test oracle.

Wrenches are (force, moment) array pairs built from ``np.cross`` and the
``frames`` rotation matrices, body-rate accelerations come from a 3x3
``np.linalg.solve`` on the full inertia tensor (``inertia_matrix``), and the
state passes through ``BodyState`` (which wraps the angles) and
``AttitudeAngles``. ``ionblimp.dynamics`` computes the same wrench terms and
fields with scalar code; the property tests in ``test_dynamics_reference.py``
compare the two. ``require_finite`` is the numpy form of the dataclass check
that ``ionblimp.dynamics`` now makes without numpy for floats and ints.
"""

from dataclasses import fields, is_dataclass

import numpy as np

from ionblimp.dynamics import (
    PLANAR_TOL,
    AirshipParams,
    BodyState,
    ConstraintViolation,
    ThrusterCommand,
)
from ionblimp.frames import (
    AttitudeAngles,
    StagnantFlow,
    airflow_to_body,
    euler_rates_from_body_rates,
    flow_angles_from_velocity,
    ground_to_body,
)


def velocity(state: BodyState) -> np.ndarray:
    """Body-frame velocity (u, v, w)."""
    return np.array([state.u, state.v, state.w])


def rates(state: BodyState) -> np.ndarray:
    """Body rates (p, q, r)."""
    return np.array([state.p, state.q, state.r])


def attitude(state: BodyState) -> AttitudeAngles:
    """Roll, pitch and yaw (phi, theta, psi)."""
    return AttitudeAngles(state.phi, state.theta, state.psi)


def inertia_matrix(params: AirshipParams) -> np.ndarray:
    """The body-frame inertia tensor, with the roll/yaw product of inertia."""
    return np.array(
        [
            [params.inertia_x, 0.0, -params.inertia_xz],
            [0.0, params.inertia_y, 0.0],
            [-params.inertia_xz, 0.0, params.inertia_z],
        ]
    )


def aero_wrench(params: AirshipParams, v_body) -> tuple:
    v_body = np.asarray(v_body, dtype=float).reshape(3)
    try:
        flow = flow_angles_from_velocity(v_body)
    except StagnantFlow:
        return np.zeros(3), np.zeros(3)
    speed_sq = float(v_body @ v_body)
    q_dyn = 0.5 * params.air_density * speed_sq
    drag = q_dyn * params.drag_coeff
    lift = q_dyn * params.lift_slope * flow.alpha
    pitch_moment = q_dyn * params.ref_chord * params.moment_slope * flow.alpha
    l_ba = airflow_to_body(flow)
    force = l_ba @ np.array([-drag, 0.0, -lift])
    moment = l_ba @ np.array([0.0, pitch_moment, 0.0])
    return force, moment


def thruster_wrench(params: AirshipParams, cmd: ThrusterCommand) -> tuple:
    t = cmd.thrust
    cy, sy = np.cos(cmd.yaw_deflection), np.sin(cmd.yaw_deflection)
    cp, sp = np.cos(cmd.pitch_deflection), np.sin(cmd.pitch_deflection)
    force = t * np.array([cy * cp, sy * cp, -sp])
    arm = np.array([params.mount_x, 0.0, params.mount_z]) + params.link_length * np.array(
        [cy * sp, sy * sp, cp]
    )
    return force, np.cross(arm, force)


def gravity_buoyancy_wrench(params: AirshipParams, att: AttitudeAngles) -> tuple:
    l_bg = ground_to_body(att)
    force = l_bg @ np.array([0.0, 0.0, -params.net_lift])
    weight = params.mass * params.gravity
    moment = np.cross(
        np.array([0.0, 0.0, -params.cb_offset]),
        l_bg @ np.array([0.0, 0.0, -weight]),
    )
    return force, moment


def _total_wrench(params: AirshipParams, state: BodyState, cmd: ThrusterCommand):
    aero_force, aero_moment = aero_wrench(params, velocity(state))
    thrust_force, thrust_moment = thruster_wrench(params, cmd)
    static_force, static_moment = gravity_buoyancy_wrench(params, attitude(state))
    force = aero_force + thrust_force + static_force
    moment = aero_moment + thrust_moment + static_moment
    moment = moment + np.array([0.0, 0.0, -params.yaw_damping * state.r])
    return force, moment


def full_derivatives(params: AirshipParams, state: BodyState, cmd: ThrusterCommand) -> np.ndarray:
    u, v, w = state.u, state.v, state.w
    p, q, r = state.p, state.q, state.r
    force, moment = _total_wrench(params, state, cmd)

    coriolis = np.array([v * r - w * q, -u * r + w * p, u * q - v * p])
    vel_dot = coriolis + force / params.mass

    ix, iy, iz, ixz = params.inertia_x, params.inertia_y, params.inertia_z, params.inertia_xz
    rhs = np.array(
        [
            moment[0] - q * r * (iz - iy) + p * q * ixz,
            moment[1] - p * r * (ix - iz) - (p * p - r * r) * ixz,
            moment[2] - p * q * (iy - ix) - q * r * ixz,
        ]
    )
    rate_dot = np.linalg.solve(inertia_matrix(params), rhs)

    euler_dot = euler_rates_from_body_rates(attitude(state), rates(state))
    ground_vel = ground_to_body(attitude(state)).T @ velocity(state)

    out = np.empty(12)
    out[0:3] = vel_dot
    out[3:6] = rate_dot
    out[6] = ground_vel[0]
    out[7] = ground_vel[1]
    out[8] = -ground_vel[2]
    out[9:12] = euler_dot
    return out


def planar_derivatives(params: AirshipParams, state: BodyState, cmd: ThrusterCommand) -> np.ndarray:
    off_manifold = max(abs(state.phi), abs(state.theta), abs(state.p), abs(state.q))
    if off_manifold > PLANAR_TOL:
        raise ConstraintViolation(
            f"planar model requires phi=theta=p=q=0, worst violation {off_manifold:.3e}"
        )

    u, v, w, r = state.u, state.v, state.w, state.r
    force, moment = _total_wrench(params, state, cmd)

    vel_dot = np.array([v * r, -u * r, 0.0]) + force / params.mass
    r_dot = moment[2] / params.inertia_z

    cpsi, spsi = np.cos(state.psi), np.sin(state.psi)
    out = np.zeros(12)
    out[0:3] = vel_dot
    out[5] = r_dot
    out[6] = u * cpsi - v * spsi
    out[7] = u * spsi + v * cpsi
    out[8] = -w
    out[11] = r
    return out


def require_finite(instance) -> None:
    """Raise ValueError naming the first dataclass field holding nan or inf (None is skipped)."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if value is not None and not is_dataclass(value) and not np.all(np.isfinite(value)):
            raise ValueError(f"{f.name} must be finite" + ("" if np.ndim(value) else f", got {value}"))
