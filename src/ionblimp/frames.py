"""Matrix-form frame rotations and flow angles: the reference for the scalar kernel in ``dynamics``; no run loads it.

Conventions
-----------
* Ground frame: x north-ish, y east-ish, z DOWN. Altitude h is measured up,
  so the ground z coordinate is -h.
* Body frame: x forward along the hull axis, y starboard, z down.
* Airflow frame: x_a along the freestream (flight velocity), z_a in the
  x_b/x_a plane.
* All angles are radians everywhere inside the library. Degrees exist only
  at the config/CLI boundary.
* Rotation matrices map COMPONENTS into the body frame, e.g.
  ``v_body = ground_to_body(att) @ v_ground``. The attitude ``att`` is a
  ``dynamics.BodyState``; only its wrapped phi, theta and psi are read.

All functions are pure and safe to call from any thread, and import numpy when called. ``wrap_angle``,
``V_EPS`` and ``FLOW_ANGLE_LIMIT`` are the kernel's own objects, re-exported from ``dynamics``.
"""

from __future__ import annotations

import math

from .dynamics import FLOW_ANGLE_LIMIT, V_EPS, Record, wrap_angle  # noqa: F401  (wrap_angle is re-exported)


class StagnantFlow(ValueError):
    """Airspeed below V_EPS: aero angles undefined, forces must be zeroed."""


class FlowAngles(Record):
    """Angle of attack and sideslip (rad), both strictly inside (-pi/2, pi/2)."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (abs(self.alpha) < math.pi / 2 and abs(self.beta) < math.pi / 2):
            raise ValueError(
                f"flow angles must lie in (-pi/2, pi/2), got alpha={self.alpha}, beta={self.beta}"
            )


def ground_to_body(att: BodyState) -> np.ndarray:
    """Rotation taking ground-frame components to body-frame components at att's phi, theta and psi.

    Built as roll(x) @ pitch(y) @ yaw(z), the classic Z-Y-X sequence.
    """
    import numpy as np
    cphi, sphi = np.cos(att.phi), np.sin(att.phi)
    cth, sth = np.cos(att.theta), np.sin(att.theta)
    cpsi, spsi = np.cos(att.psi), np.sin(att.psi)
    roll = np.array([[1.0, 0.0, 0.0], [0.0, cphi, sphi], [0.0, -sphi, cphi]])
    pitch = np.array([[cth, 0.0, -sth], [0.0, 1.0, 0.0], [sth, 0.0, cth]])
    yaw = np.array([[cpsi, spsi, 0.0], [-spsi, cpsi, 0.0], [0.0, 0.0, 1.0]])
    return roll @ pitch @ yaw


def airflow_to_body(flow: FlowAngles) -> np.ndarray:
    """Rotation taking airflow-frame components to body-frame components.

    Product of the sideslip roll factor and the attack pitch factor.
    """
    import numpy as np
    ca, sa = np.cos(flow.alpha), np.sin(flow.alpha)
    cb, sb = np.cos(flow.beta), np.sin(flow.beta)
    roll_beta = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    pitch_alpha = np.array([[ca, 0.0, sa], [0.0, 1.0, 0.0], [-sa, 0.0, ca]])
    return roll_beta @ pitch_alpha


def euler_rates_from_body_rates(att: BodyState, body_rates) -> np.ndarray:
    """Invert the attitude-rate kinematics at att's phi and theta: (p, q, r) -> (phi_dot, theta_dot, psi_dot).

    Singular at theta = +-pi/2 (cos(theta) = 0), like every Euler-angle chart.
    """
    import numpy as np
    p, q, r = np.asarray(body_rates, dtype=float)
    cphi, sphi = np.cos(att.phi), np.sin(att.phi)
    cth = np.cos(att.theta)
    if abs(cth) < 1e-12:
        raise ZeroDivisionError("attitude-rate kinematics singular at theta = +-pi/2")
    tth = np.tan(att.theta)
    return np.array(
        [
            p + (q * sphi + r * cphi) * tth,
            q * cphi - r * sphi,
            (q * sphi + r * cphi) / cth,
        ]
    )


def flow_angles_from_velocity(v_body) -> FlowAngles:
    """Extract attack/sideslip angles from the body-frame velocity.

    alpha = atan2(w, u), beta = asin(v / |v|). Raises StagnantFlow when the
    airspeed is below V_EPS; callers must zero aero forces in that case.
    Angles saturate just inside +-pi/2 (the aero closures are only meaningful
    well away from that boundary).
    """
    import numpy as np
    u, v, w = np.asarray(v_body, dtype=float)
    speed = float(np.sqrt(u * u + v * v + w * w))
    if speed <= V_EPS:
        raise StagnantFlow(f"airspeed {speed} m/s is below V_EPS={V_EPS}")
    alpha = np.clip(np.arctan2(w, u), -FLOW_ANGLE_LIMIT, FLOW_ANGLE_LIMIT)
    beta = np.clip(np.arcsin(np.clip(v / speed, -1.0, 1.0)), -FLOW_ANGLE_LIMIT, FLOW_ANGLE_LIMIT)
    return FlowAngles(alpha=float(alpha), beta=float(beta))
