"""Matrix formulation of the SMC pose model, kept as a test oracle.

The pose transform is passed in as explicit matrices C_bg(psi) and its
time derivative, and the plant inverts M and C_bg per call with
``np.linalg.solve``. ``ionblimp.smc`` computes the same quantities with
plain floats, C_bg^-1 = C_bg^T and M^-1 computed once per model;
``test_smc_reference.py`` compares the two.

The per-step float functions are also kept here in their straightforward
form over row tuples and generators (``sample``, ``tracking_error``,
``float_sliding_surface``, ``lyapunov_monitor``, ``float_smc_control``,
``float_pose_acceleration``). ``ionblimp.smc`` writes them out per channel
over rows of three floats with the same operands in the same order, so the
two must agree exactly.
"""

import bisect
import math

import numpy as np

from ionblimp import smc
from ionblimp.frames import wrap_angle


def planar_transforms(psi, psi_dot):
    """C_bg(psi) and its time derivative for yaw rate psi_dot."""
    c, s = np.cos(psi), np.sin(psi)
    c_bg = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    c_bg_dot = psi_dot * np.array([[-s, c, 0.0], [-c, -s, 0.0], [0.0, 0.0, 0.0]])
    return c_bg, c_bg_dot


def _sgn(s: np.ndarray, boundary_layer: float) -> np.ndarray:
    if boundary_layer > 0.0:
        return s / (np.abs(s) + boundary_layer)
    return np.sign(s)


def sliding_surface(gains, error, error_rate) -> np.ndarray:
    return gains.c1 * np.asarray(error, dtype=float) + gains.c2 * np.asarray(error_rate, dtype=float)


def smc_control(model, gains, error, error_rate, eta_dot, c_bg, c_bg_dot) -> np.ndarray:
    eta_dot = np.asarray(eta_dot, dtype=float).reshape(3)
    error_rate = np.asarray(error_rate, dtype=float).reshape(3)
    c_bg = np.asarray(c_bg, dtype=float).reshape(3, 3)
    c_bg_dot = np.asarray(c_bg_dot, dtype=float).reshape(3, 3)
    if abs(np.linalg.det(c_bg)) < 1e-12:
        raise np.linalg.LinAlgError("pose transform c_bg is singular")

    s = sliding_surface(gains, error, error_rate)
    eta_ddot_req = -(1.0 / gains.c2) * (
        gains.epsilon * _sgn(s, gains.boundary_layer)
        + gains.k * s
        + gains.c1 * error_rate
    )
    return (
        model.mass_matrix @ (c_bg_dot @ eta_dot)
        - model.aero_matrix @ (c_bg @ eta_dot)
        + model.mass_matrix @ (c_bg @ eta_ddot_req)
    )


def pose_acceleration(model, u_forces, eta_dot, c_bg, c_bg_dot) -> np.ndarray:
    u_forces = np.asarray(u_forces, dtype=float).reshape(3)
    eta_dot = np.asarray(eta_dot, dtype=float).reshape(3)
    c_bg = np.asarray(c_bg, dtype=float).reshape(3, 3)
    c_bg_dot = np.asarray(c_bg_dot, dtype=float).reshape(3, 3)
    x_dot = np.linalg.solve(
        model.mass_matrix,
        model.aero_matrix @ (c_bg @ eta_dot) + u_forces,
    )
    return np.linalg.solve(c_bg, x_dot - c_bg_dot @ eta_dot)


def sample(reference, t):
    """Pose and rate of a ReferenceTrajectory at t, interpolated from its two tables."""
    times = reference.times
    held = not times[0] <= t < times[-1]
    t = min(max(float(t), times[0]), times[-1])
    idx = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
    t0, t1 = times[idx], times[idx + 1]
    p0, p1 = reference.poses[idx], reference.poses[idx + 1]
    frac = (t - t0) / (t1 - t0)
    pose = tuple(a + frac * (b - a) for a, b in zip(p0, p1))
    if held:
        return pose, (0.0, 0.0, 0.0)
    return pose, tuple((b - a) / (t1 - t0) for a, b in zip(p0, p1))


def tracking_error(pose, pose_rate, ref_pose, ref_rate):
    """(error, error_rate) of TrackingError.from_pose as float tuples."""
    (x, y, psi), (ref_x, ref_y, ref_psi) = pose, ref_pose
    error = (x - ref_x, y - ref_y, wrap_angle(psi - ref_psi))
    return tuple(map(float, error)), tuple(float(a - b) for a, b in zip(pose_rate, ref_rate))


def float_sliding_surface(gains, err):
    return tuple([gains.c1 * e + gains.c2 * r for e, r in zip(err.error, err.error_rate)])


def lyapunov_monitor(gains, s):
    return tuple([0.5 * x * x for x in s]), tuple([-gains.epsilon * abs(x) - gains.k * x * x for x in s])


def _mul(matrix, x0, x1, x2) -> tuple:
    """matrix @ (x0, x1, x2) for a 3x3 matrix held as three rows of three floats."""
    (a, b, c), (d, e, f), (g, h, i) = matrix
    return (a * x0 + b * x1 + c * x2, d * x0 + e * x1 + f * x2, g * x0 + h * x1 + i * x2)


def float_smc_control(model, gains, s, error_rate, eta_dot, psi):
    c1, c2, eps, k, bl = gains.c1, gains.c2, gains.epsilon, gains.k, gains.boundary_layer
    q0, q1, q2 = (-(1.0 / c2) * (eps * smc._sgn(si, bl) + k * si + c1 * rate) for si, rate in zip(s, error_rate))
    xd, yd, psi_dot = eta_dot
    c, sn = math.cos(psi), math.sin(psi)
    u, v = c * xd + sn * yd, -sn * xd + c * yd
    m0, m1, m2 = _mul(model.mass_matrix, psi_dot * v + c * q0 + sn * q1, -psi_dot * u - sn * q0 + c * q1, q2)
    a0, a1, a2 = _mul(model.aero_matrix, u, v, psi_dot)
    return (m0 - a0, m1 - a1, m2 - a2)


def float_pose_acceleration(model, u_forces, eta_dot, psi):
    xd, yd, psi_dot = eta_dot
    c, sn = math.cos(psi), math.sin(psi)
    u, v = c * xd + sn * yd, -sn * xd + c * yd
    a0, a1, a2 = _mul(model.aero_matrix, u, v, psi_dot)
    f0, f1, f2 = u_forces
    x0, x1, x2 = _mul(model._m_inv, a0 + f0, a1 + f1, a2 + f2)
    w0, w1 = x0 - psi_dot * v, x1 + psi_dot * u
    return (c * w0 - sn * w1, sn * w0 + c * w1, x2)
