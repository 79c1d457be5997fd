"""Matrix formulation of the SMC pose model, kept as a test oracle.

The pose transform is passed in as explicit matrices C_bg(psi) and its
time derivative, and both the control law and the plant invert matrices
per call with ``np.linalg.solve``. ``ionblimp.smc`` computes the same
quantities with plain floats, C_bg^-1 = C_bg^T and inverses computed once
per model; ``test_smc_reference.py`` compares the two.
"""

import numpy as np


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
    demand = (
        model.mass_matrix @ (c_bg_dot @ eta_dot)
        - model.aero_matrix @ (c_bg @ eta_dot)
        + model.mass_matrix @ (c_bg @ eta_ddot_req)
    )
    return np.linalg.solve(model.input_matrix, demand)


def pose_acceleration(model, u_forces, eta_dot, c_bg, c_bg_dot) -> np.ndarray:
    u_forces = np.asarray(u_forces, dtype=float).reshape(3)
    eta_dot = np.asarray(eta_dot, dtype=float).reshape(3)
    c_bg = np.asarray(c_bg, dtype=float).reshape(3, 3)
    c_bg_dot = np.asarray(c_bg_dot, dtype=float).reshape(3, 3)
    x_dot = np.linalg.solve(
        model.mass_matrix,
        model.aero_matrix @ (c_bg @ eta_dot) + model.input_matrix @ u_forces,
    )
    return np.linalg.solve(c_bg, x_dot - c_bg_dot @ eta_dot)
