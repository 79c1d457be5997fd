"""Sliding-mode trajectory tracking over the lateral-planar model.

The tracked pose is eta = (x, y, psi) in the ground frame; the body-frame
state is X = (u, v, r) = C_bg(psi) @ eta_dot. The plant model is

    M_s @ X_dot = A_s @ X + U

with M_s the generalized mass (rigid mass plus added mass, with CG offset
coupling), A_s the aero-derivative matrix and U the generalized force
(F_x, F_y, N_z). The controller drives the sliding variable
s = c1*e + c2*e_dot to zero along the exponential reaching law
s_dot = -eps*sgn(s) - k*s.

The control law is the inverse-dynamics expression obtained from
X = C eta_dot, X_dot = C_dot eta_dot + C eta_ddot:

    U = M_s C_dot eta_dot - A_s C eta_dot + M_s C eta_ddot_req
    eta_ddot_req = -(1/c2) * (eps*sgn(s) + k*s + c1*e_dot)

Substituted back into the plant this yields s_dot equal to the reaching
law exactly (the reference acceleration is treated as zero, so references
should be piecewise-linear in time).

C = C_bg(psi) is the planar rotation, so C^-1 = C^T and C_dot eta_dot =
psi_dot * (v, -u, 0). An ``SmcModel`` holds M_s, A_s and M_s^-1 (computed
once) as three rows of three floats, and the per-step functions are
straight-line float code over them, one expression per channel.

The controller is a pure function of its arguments; the simulation harness
owns all state and reads the reference table. numpy is imported only for a
non-diagonal M_s.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from .dynamics import GIMBAL_LIMIT, Record, ThrusterCommand, store_floats, table_shape, wrap_angle


class SmcModel(Record):
    """Lateral-plane plant matrices M and A for controller synthesis, and M^-1 (``_m_inv``): rows of three floats."""

    mass_matrix: tuple
    aero_matrix: tuple

    def __post_init__(self):
        store_floats(self, tables=("mass_matrix", "aero_matrix"))
        if table_shape(self.mass_matrix) != (3, 3) or table_shape(self.aero_matrix) != (3, 3):
            raise ValueError("mass_matrix and aero_matrix must be 3x3")
        m = self.mass_matrix
        recips = [1.0 / m[i][i] if m[i][i] else math.inf for i in range(3)]
        if any(m[i][j] for i in range(3) for j in range(3) if i != j) or not all(map(math.isfinite, recips)):
            import numpy as np  # cg offsets couple the channels, or a 1 / M_ii overflows (LAPACK then has nan)
            det, m_inv = np.linalg.det(m), None
        else:  # diagonal: LAPACK's M^-1 has row i = (i == j) * (1 / M_ii), zeros signed as 1 / M_ii
            det, m_inv = m[0][0] * m[1][1] * m[2][2], tuple(tuple(float(i == j) * r for j in range(3))
                                                             for i, r in enumerate(recips))
        if abs(det) < 1e-15:
            raise ValueError("mass_matrix is singular")
        object.__setattr__(self, "_m_inv", m_inv or tuple(map(tuple, np.linalg.inv(m).tolist())))

    @classmethod
    def from_components(cls, mass: float, inertia_z: float, added_mass_x: float = 0.0, added_mass_y: float = 0.0,
                        added_inertia_z: float = 0.0, cg_x: float = 0.0, cg_y: float = 0.0,
                        aero_matrix=((0.0, 0.0, 0.0),) * 3) -> "SmcModel":
        """The generalized mass matrix in its standard symmetric form from physical components:

            [[m + m11, 0, -m*y_G], [0, m + m22, m*x_G], [-m*y_G, m*x_G, Iz + m66]]
        """
        m11, m22, m66 = added_mass_x, added_mass_y, added_inertia_z
        return cls(mass_matrix=((mass + m11, 0.0, -mass * cg_y),
                                (0.0, mass + m22, mass * cg_x),
                                (-mass * cg_y, mass * cg_x, inertia_z + m66)), aero_matrix=aero_matrix)


class SmcGains(Record):
    """Sliding-surface weights, reaching gains and optional sgn smoothing.

    boundary_layer > 0 replaces sgn(s) with s/(|s|+boundary_layer); the
    default 0 keeps the exact sign function with sgn(0) = 0.
    """

    c1: float
    c2: float
    epsilon: float
    k: float
    boundary_layer: float = 0.0

    def __post_init__(self):
        store_floats(self, positive=("k",), non_negative=("epsilon", "boundary_layer"))
        if not (self.c2 and math.isfinite(1.0 / self.c2)):  # the control law's gain -(1 / c2) is undefined or overflows
            raise ValueError(f"c2 must have a finite reciprocal 1 / c2, got {self.c2!r}")


class TrackingError(namedtuple("TrackingError", "error error_rate")):
    """Pose tracking error and its rate, (x, y, psi) each: ``from_pose`` builds float tuples, the yaw wrapped."""

    __slots__ = ()

    @classmethod
    def from_pose(cls, pose, pose_rate, ref_pose, ref_rate) -> "TrackingError":
        (x, y, psi), (ref_x, ref_y, ref_psi) = pose, ref_pose
        (xd, yd, psid), (ref_xd, ref_yd, ref_psid) = pose_rate, ref_rate
        return cls((float(x - ref_x), float(y - ref_y), wrap_angle(psi - ref_psi)),
                   (float(xd - ref_xd), float(yd - ref_yd), float(psid - ref_psid)))


def _sgn(s: float, boundary_layer: float) -> float:
    """sgn(s), with sgn(0) = 0 and nan kept, or s/(|s|+boundary_layer) when smoothing."""
    if boundary_layer > 0.0:
        return s / (abs(s) + boundary_layer)
    return 1.0 if s > 0.0 else -1.0 if s < 0.0 else s + 0.0  # +-0 -> 0, nan stays nan


def sliding_surface(gains: SmcGains, err: TrackingError) -> tuple:
    """s = c1*e + c2*e_dot, componentwise over (x, y, psi), as a float tuple."""
    (e0, e1, e2), (r0, r1, r2), c1, c2 = err.error, err.error_rate, gains.c1, gains.c2
    return (c1 * e0 + c2 * r0, c1 * e1 + c2 * r1, c1 * e2 + c2 * r2)


def lyapunov_monitor(gains: SmcGains, s) -> tuple:
    """Per-channel Lyapunov value V = s^2/2 and its rate -eps|s| - k s^2, as float tuples."""
    (s0, s1, s2), eps, k = s, gains.epsilon, gains.k
    return ((0.5 * s0 * s0, 0.5 * s1 * s1, 0.5 * s2 * s2),
            (-eps * abs(s0) - k * s0 * s0, -eps * abs(s1) - k * s1 * s1, -eps * abs(s2) - k * s2 * s2))


def reaching_time_bound(gains: SmcGains, s0: float) -> float:
    """Analytic upper bound on the time to reach s = 0 from |s0|.

    For s_dot = -eps*sgn(s) - k*s the exact arrival time is
    (1/k) * ln(1 + k|s0|/eps); with eps = 0 the surface is only approached
    asymptotically and the bound is infinite.
    """
    if gains.epsilon == 0.0:
        return math.inf
    return math.log1p(gains.k * abs(s0) / gains.epsilon) / gains.k


def smc_control(model: SmcModel, gains: SmcGains, s, error_rate, eta_dot, psi: float) -> tuple:
    """Generalized force demand U = (F_x, F_y, N_z) for the lateral plant.

    Inverse dynamics through X = C_bg(psi) eta_dot with the reaching law as
    the demanded error acceleration; the pose enters through the sliding
    variable s (from ``sliding_surface``), the error rate and the heading psi.
    """
    c1, c2, eps, k, bl = gains.c1, gains.c2, gains.epsilon, gains.k, gains.boundary_layer
    (s0, s1, s2), (r0, r1, r2), g = s, error_rate, -(1.0 / c2)
    q0 = g * (eps * _sgn(s0, bl) + k * s0 + c1 * r0)
    q1 = g * (eps * _sgn(s1, bl) + k * s1 + c1 * r1)
    q2 = g * (eps * _sgn(s2, bl) + k * s2 + c1 * r2)
    xd, yd, psi_dot = eta_dot
    c, sn = math.cos(psi), math.sin(psi)
    u, v = c * xd + sn * yd, -sn * xd + c * yd
    # M (C_dot eta_dot + C eta_ddot_req) - A C eta_dot
    b0, b1 = psi_dot * v + c * q0 + sn * q1, -psi_dot * u - sn * q0 + c * q1
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = model.mass_matrix
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = model.aero_matrix
    return (m00 * b0 + m01 * b1 + m02 * q2 - (a00 * u + a01 * v + a02 * psi_dot),
            m10 * b0 + m11 * b1 + m12 * q2 - (a10 * u + a11 * v + a12 * psi_dot),
            m20 * b0 + m21 * b1 + m22 * q2 - (a20 * u + a21 * v + a22 * psi_dot))


def pose_acceleration(model: SmcModel, u_forces, eta_dot, psi: float) -> tuple:
    """Pose acceleration of the lateral plant under generalized forces.

    eta_ddot = C^T (M^-1 (A C eta_dot + U) - C_dot eta_dot); the same
    kinematic identity the control law inverts, so controller and plant
    share one definition of the dynamics.
    """
    xd, yd, psi_dot = eta_dot
    c, sn = math.cos(psi), math.sin(psi)
    u, v = c * xd + sn * yd, -sn * xd + c * yd
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = model.aero_matrix
    f0, f1, f2 = u_forces
    # M^-1 (A C eta_dot + U) - C_dot eta_dot, rotated back by C^T
    g0 = a00 * u + a01 * v + a02 * psi_dot + f0
    g1 = a10 * u + a11 * v + a12 * psi_dot + f1
    g2 = a20 * u + a21 * v + a22 * psi_dot + f2
    (n00, n01, n02), (n10, n11, n12), (n20, n21, n22) = model._m_inv
    w0 = n00 * g0 + n01 * g1 + n02 * g2 - psi_dot * v
    w1 = n10 * g0 + n11 * g1 + n12 * g2 + psi_dot * u
    return (c * w0 - sn * w1, sn * w0 + c * w1, n20 * g0 + n21 * g1 + n22 * g2)


def allocate_actuation(u_forces, t_max: float, mount_arm_x: float = 0.0):
    """Map generalized forces (F_x, F_y, N_z) onto the single vectored thruster.

    T = min(|F_xy|, t_max) and delta_y = atan2(F_y, F_x) clamped to the
    gimbal limit; the pitch gimbal stays at zero (no vertical channel in
    the lateral plant). The residual (a float tuple) reports the unmet
    generalized force: force components are requested-minus-realized
    exactly, and the moment component is N_z minus the moment the mount arm
    produces (mount_arm_x * T * sin(delta_y)). Saturation is never hidden:
    it shows up in the residual.
    """
    if not t_max > 0.0:  # nan is refused too
        raise ValueError("t_max must be positive")
    fx, fy, nz = map(float, u_forces)
    if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(nz)):
        raise ValueError(f"force demand (F_x, F_y, N_z) must be finite, got {(fx, fy, nz)!r}")
    requested = math.hypot(fx, fy)
    thrust = min(requested, t_max)
    delta_y = math.atan2(fy, fx) if requested > 0.0 else 0.0
    delta_y = min(max(delta_y, -GIMBAL_LIMIT), GIMBAL_LIMIT)
    realized_x = thrust * math.cos(delta_y)
    realized_y = thrust * math.sin(delta_y)
    residual = (fx - realized_x, fy - realized_y, nz - mount_arm_x * realized_y)
    cmd = ThrusterCommand(thrust=thrust, yaw_deflection=delta_y, pitch_deflection=0.0)
    return cmd, residual


class ReferenceTrajectory(Record):
    """Sampled (t, x, y, psi) reference with linear interpolation.

    The yaw column is unwrapped on construction so interpolation never
    jumps across the +-pi seam; sampled rates are the segment slopes. Both
    tables are stored as float tuples, and construction precomputes one
    segment row (t0, t1 - t0, p0, p1 - p0, slope) per pair of knots, so a
    sample inside the table is one bisection and three multiply-adds.
    """

    times: tuple
    poses: tuple  # rows of (x, y, psi), psi unwrapped

    def __post_init__(self):
        store_floats(self, tables=("times", "poses"))
        times, shape = self.times, table_shape(self.poses)
        # table_shape gives (n,) for rows of unequal shapes too, so each time must also be a number.
        if table_shape(times) != shape[:1] or shape[1:] != (3,) or any(map(table_shape, times)):
            raise ValueError(f"need times (n,) and poses (n, 3) of x, y, psi, got {table_shape(times)} and {shape}")
        if len(times) < 2 or any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("need at least two strictly increasing sample times")
        poses, total, pi = [self.poses[0]], 0.0, math.pi
        for (_, _, psi0), (x, y, psi) in zip(self.poses, self.poses[1:]):  # np.unwrap, step for step
            dd = psi - psi0
            ddmod = (dd + pi) % (2.0 * pi) - pi  # in [-pi, pi); a jump up by an odd multiple of pi keeps +pi
            total += 0.0 if abs(dd) < pi else (pi if ddmod == -pi and dd > 0.0 else ddmod) - dd
            poses.append((x, y, psi + total))
        object.__setattr__(self, "poses", tuple(poses))
        segments = []
        for t0, t1, (x0, y0, psi0), (x1, y1, psi1) in zip(times, times[1:], poses, poses[1:]):
            dt, dp = t1 - t0, (x1 - x0, y1 - y0, psi1 - psi0)
            if dt == math.inf:  # knots far apart overflow the spacing, and the slope would read 0
                raise ValueError(f"knot spacing from t={t0!r} to t={t1!r} is not finite")
            slope = (dp[0] / dt, dp[1] / dt, dp[2] / dt)
            if not all(map(math.isfinite, slope)):  # knots a subnormal time apart overflow it
                raise ValueError(f"pose slope from t={t0!r} to t={t1!r} is not finite")
            segments.append((t0, dt, (x0, y0, psi0), dp, slope))
        object.__setattr__(self, "_segments", tuple(segments))

    def sample(self, t: float):
        """Pose and pose rate at time t as float tuples; held, at zero rate, beyond the table ends."""
        t, times = float(t), self.times
        if times[0] <= t < times[-1]:
            t0, dt, (x, y, psi), (dx, dy, dpsi), rate = self._segments[bisect.bisect_right(times, t) - 1]
        else:  # the end segment t is held at: frac is exactly 0.0 or 1.0, or nan for a nan t
            (t0, dt, (x, y, psi), (dx, dy, dpsi), _), rate = self._segments[0 if t < times[0] else -1], (0.0, 0.0, 0.0)
            t = min(max(t, times[0]), times[-1])
        frac = (t - t0) / dt
        return (x + frac * dx, y + frac * dy, psi + frac * dpsi), rate
