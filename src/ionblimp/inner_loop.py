"""Low-speed linear model, inner-loop gain design and Lyapunov certification.

The linear model is taken about a low-speed level trim over the deviation
states (du, dv, dw, dr) and inputs (dT, d_deltay, d_deltap). Its entries
are kept exactly as the small-deviation expansion states them, including
the destabilizing positive sign on the dv/dw aero terms; they are not
"corrected" to match the nonlinear closure (the two are compared, with the
known differences spelled out, in the test suite).

Gain design:

* k_u: unity-DC-gain surge feedback from the first-order closed loop.
* k_w: lower bound for the heave gimbal gain.
* (k1, k2): sway/yaw feedback certified through the 2x2 Lyapunov equation
  A'M + MA = -I; a gain pair is accepted only when the solved M is
  positive definite.

U_CHANNEL_GAIN / U_CHANNEL_POLE are the fitted first-order surge-plant
coefficients of the desk-scale prototype. Note the fitted pole is about
twice the value the drag entry of ``linearize`` predicts from the same
numbers; both are reported, neither is silently adjusted. numpy is
imported by the functions that use it, not by this module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .dynamics import AirshipParams, _floats, check_sign, store_floats

# Fitted surge-channel plant for the 297.8 g prototype: du/dT1 = g / (s + a)
# once the k_u loop is closed, with g and a below for the open loop.
U_CHANNEL_GAIN = 3.3580  # 1/kg (thrust-to-acceleration numerator, 1/m)
U_CHANNEL_POLE = 0.0575  # 1/s (fitted open-loop pole)

# Certification thresholds for a valid Lyapunov certificate.
RESIDUAL_LIMIT = 1e-10


class SingularLyapunov(ValueError):  # ValueError is numpy's LinAlgError's own base
    """The Lyapunov system is singular: the closed loop has mirrored eigenvalues."""


@dataclass(frozen=True)
class LinearModel:
    """4x4 state matrix and 4x3 input matrix about a level trim."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class InnerLoopConfig:
    """An inner-loop design: a level trim and the feedback gains about it.

    The fields are the ``[inner_loop]`` keys of a scenario file, in the
    order ``gain_report`` prints them.
    """

    trim_speed: float
    trim_thrust: float
    k_u: float
    k_w: float = 0.0
    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self):
        store_floats(self)


@dataclass(frozen=True)
class LyapunovCertificate:
    """Solution of A'M + MA = -I plus the quantities that make it checkable."""

    m: np.ndarray
    residual: float
    min_eigenvalue: float

    @property
    def is_valid(self) -> bool:
        return self.residual < RESIDUAL_LIMIT and self.min_eigenvalue > 0.0


def linearize(params: AirshipParams, trim_speed: float, trim_thrust: float) -> LinearModel:
    """Small-deviation model about level flight at (trim_speed, trim_thrust)."""
    check_sign("trim_speed", trim_speed)
    check_sign("trim_thrust", trim_thrust)
    import numpy as np
    m = params.mass
    rho_v = params.air_density * trim_speed
    a = np.array(
        [
            [-rho_v * params.drag_coeff / m, 0.0, 0.0, 0.0],
            [0.0, rho_v * params.lift_slope / (2.0 * m), 0.0, -trim_speed],
            [0.0, 0.0, rho_v * params.lift_slope / (2.0 * m), 0.0],
            [0.0, rho_v * params.ref_chord * params.moment_slope / (2.0 * m), 0.0,
             -params.yaw_damping / params.inertia_z],
        ]
    )
    b = np.array(
        [
            [1.0 / m, 0.0, 0.0],
            [0.0, trim_thrust / m, 0.0],
            [0.0, 0.0, -trim_thrust / m],
            [0.0, params.mount_x * trim_thrust / params.inertia_z, 0.0],
        ]
    )
    return LinearModel(a=a, b=b)


def design_ku_unity_dc(numerator: float, pole: float) -> float:
    """Surge gain giving unity DC gain for g/(s + pole + g*k_u)."""
    check_sign("numerator", numerator)
    return _floats(f"k_u at numerator={numerator!r}, pole={pole!r}", (numerator - pole) / numerator, False)


def kw_lower_bound(params: AirshipParams, trim_speed: float, trim_thrust: float) -> float:
    """Minimum heave gain that stabilizes the dw channel: rho V C_La / (2 T)."""
    check_sign("trim_thrust", trim_thrust)  # zero thrust leaves no gimbal authority
    check_sign("trim_speed", trim_speed, positive=False)
    k_w = params.air_density * trim_speed * params.lift_slope / (2.0 * trim_thrust)
    return _floats(f"k_w bound at trim_speed={trim_speed!r}, trim_thrust={trim_thrust!r}", k_w, False)


def closed_loop_vr(model: LinearModel, k1: float, k2: float) -> np.ndarray:
    """Sway/yaw closed-loop matrix under d_deltay = -k1*dv - k2*dr.

    Formed by substituting the feedback into the open-loop (dv, dr) block
    A_vr and its d_deltay input column b_vr, i.e. A_cl = A_vr - b_vr @ [k1, k2].
    """
    import numpy as np
    return model.a[np.ix_([1, 3], [1, 3])] - np.outer(model.b[[1, 3], 1], np.array([k1, k2]))


def lyapunov_certify(a_cl: np.ndarray) -> LyapunovCertificate:
    """Solve A'M + MA = -I for symmetric 2x2 M and report its quality.

    The three unknowns (m1, m2, m4) satisfy a 3x3 linear system; a
    SingularLyapunov error means the closed loop has eigenvalues placed
    symmetrically about the imaginary axis and cannot be certified. The
    certificate is valid only when M is positive definite.
    """
    import numpy as np
    a_cl = np.asarray(a_cl, dtype=float)
    if a_cl.shape != (2, 2):
        raise ValueError("a_cl must be 2x2")
    if not np.all(np.isfinite(a_cl)):
        raise ValueError("a_cl must be finite")
    a, b = a_cl[0]
    c, d = a_cl[1]
    system = np.array(
        [
            [2.0 * a, 2.0 * c, 0.0],
            [b, a + d, c],
            [0.0, 2.0 * b, 2.0 * d],
        ]
    )
    rhs = np.array([-1.0, 0.0, -1.0])
    try:
        m1, m2, m4 = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularLyapunov(
            "Lyapunov system singular (closed loop not certifiable)"
        ) from exc
    m = np.array([[m1, m2], [m2, m4]])
    residual = float(np.max(np.abs(a_cl.T @ m + m @ a_cl + np.eye(2))))
    min_eig = float(np.min(np.linalg.eigvalsh(m)))
    return LyapunovCertificate(m=m, residual=residual, min_eigenvalue=min_eig)


def search_stabilizing_gains(model: LinearModel, k1_values, k2_values):
    """Grid-search (k1, k2), returning the first pair with a valid certificate.

    Iteration is row-major over k1 then k2, so the result is deterministic
    for a given grid. Returns (k1, k2, certificate) or None when no pair on
    the grid certifies.
    """
    for k1 in k1_values:
        for k2 in k2_values:
            try:
                cert = lyapunov_certify(closed_loop_vr(model, float(k1), float(k2)))
            except SingularLyapunov:
                continue
            if cert.is_valid:
                return float(k1), float(k2), cert
    return None


@dataclass(frozen=True)
class FirstOrderTf:
    """First-order transfer function gain / (s + pole)."""

    gain: float
    pole: float

    def __post_init__(self):
        store_floats(self)

    @property
    def dc_gain(self) -> float:
        if self.pole == 0.0:
            raise ZeroDivisionError("DC gain undefined for a pole at the origin")
        return self.gain / self.pole

    @property
    def time_constant(self) -> float:
        if self.pole <= 0.0:
            raise ValueError("time constant defined only for a stable pole")
        return 1.0 / self.pole


def close_u_loop(k_u: float, gain: float = U_CHANNEL_GAIN, pole: float = U_CHANNEL_POLE) -> FirstOrderTf:
    """Closed surge loop gain/(s + pole + gain*k_u) under dT = -k_u*du + dT1."""
    return FirstOrderTf(gain=gain, pole=pole + gain * k_u)


def step_response(tf: FirstOrderTf, duration: float, dt: float):
    """Unit-step response samples of a first-order transfer function.

    Returns (t, y) arrays with y(t) = (gain/pole) * (1 - exp(-pole t)),
    degenerating to the ramp gain*t for a pole at the origin.
    """
    check_sign("duration", duration)
    check_sign("dt", dt)
    import numpy as np
    t = np.arange(0.0, duration + 0.5 * dt, dt)
    if tf.pole == 0.0:
        y = tf.gain * t
    else:
        y = tf.gain / tf.pole * (1.0 - np.exp(-tf.pole * t))
    return t, y


def gain_report(design: InnerLoopConfig, cert: LyapunovCertificate | None) -> str:
    """Plain-text key=value report: the design's fields in order, then the certificate."""
    lines = [f"{f.name}={getattr(design, f.name)!r}" for f in fields(design)]
    if cert is not None:
        lines += [
            f"lyapunov_m1={float(cert.m[0, 0])!r}",
            f"lyapunov_m2={float(cert.m[0, 1])!r}",
            f"lyapunov_m4={float(cert.m[1, 1])!r}",
            f"lyapunov_residual={cert.residual!r}",
            f"lyapunov_min_eig={cert.min_eigenvalue!r}",
            f"certificate_valid={str(cert.is_valid).lower()}",
        ]
    return "\n".join(lines) + "\n"
