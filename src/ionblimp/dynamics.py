"""Rigid-body force assembly and equations of motion for the blimp.

Two derivative fields over the same 12-component state:

* ``full_derivatives`` - 6-DOF translational/rotational dynamics with the
  product-of-inertia coupling Ixz, pendulum buoyancy moment, aero closure
  and vectored thrust.
* ``planar_derivatives`` - the level-attitude simplification (phi = theta =
  p = q = 0) where only surge/sway/heave, yaw and the ground track evolve.

The state layout is ``BodyState``'s fields, in order (``STATE_LABELS``):

    [u, v, w, p, q, r, x, y, h, phi, theta, psi]

``BodyState.as_array``/``from_array`` follow it. Both fields take it as the
tuple or list of 12 floats the RK4 step hands them (``BodyState._astuple()``
gives it) and return a 12-float tuple. Each wrench
term is defined once, as a public ``*_wrench`` function returning its
body-frame (fx, fy, fz, mx, my, mz) as a 6-float tuple. Both fields take the
thrust wrench held over an RK4 step, which the caller computes with
``thruster_wrench`` once per held command (per row without noise, per step
otherwise), and one scalar kernel, ``_body_wrench``, sums the aero,
gravity/buoyancy and yaw-damping terms onto it for both models.

Both derivative fields include a net vertical lift force (buoyancy minus
weight, a single configurable number) and a linear yaw-damping moment
-C2*r. These appear in both models so that they agree exactly on the shared
planar manifold. The angle rules every run applies (``wrap_angle``,
``V_EPS``, ``FLOW_ANGLE_LIMIT``) are defined here; ``frames`` re-exports them.
"""

from __future__ import annotations

import math


class Record:
    """A frozen dataclass without the cost of importing and running ``dataclasses``: a subclass's annotated names,
    in order, are its ``_fields``, its class body's values their defaults. Its ``__init__`` is compiled from them,
    as dataclasses compiles one: it stores each field with object.__setattr__ (a store through ``__dict__`` would
    materialize the instance dict and make every field read 3-4x slower), then calls ``__post_init__`` if the class
    has one. The repr is dataclass's; equality (same class) and the hash are over the fields only, not what a record
    stores beside them; setting or deleting an attribute raises AttributeError."""

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__annotations__)
        args = "".join(f", {n}=_cls.{n}" if n in vars(cls) else f", {n}" for n in names)
        steps = [f"_set(self, {n!r}, {n})" for n in names] + ["self.__post_init__()"] * hasattr(cls, "__post_init__")
        source = (f"def __init__(self{args}):\n {'; '.join(steps) or 'pass'}\n"
                  f"def _astuple(self): return ({''.join(f'self.{n}, ' for n in names)})")
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)
        namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls._astuple = namespace["__init__"], namespace["_astuple"]

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._astuple()))})"

    def __eq__(self, other):
        return self._astuple() == other._astuple() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, *value):  # __delattr__ passes no value
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


STANDARD_GRAVITY = 9.80665  # m/s^2, also the gram-force <-> newton conversion

# Below this speed the flow direction is undefined and aero forces are zeroed.
V_EPS = 1e-6

# Flow angles saturate just inside +-pi/2 so the aero closures stay finite.
FLOW_ANGLE_LIMIT = math.pi / 2 - 1e-9

# Tolerance for the planar-manifold constraint phi = theta = p = q = 0.
PLANAR_TOL = 1e-9

# Gimbal deflections are limited to +-90 deg from the forward direction
# (the servos sweep 0-180 deg around a 90 deg center).
GIMBAL_LIMIT = math.pi / 2


class ConstraintViolation(ValueError):
    """State handed to the planar model leaves the level-attitude manifold."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]; one already inside comes back unchanged.

    The IEEE remainder is exact. nan stays nan; an infinite angle raises ValueError.
    """
    wrapped = math.remainder(angle, 2.0 * math.pi)
    return math.pi if wrapped == -math.pi else wrapped


def _floats(name: str, value, table: bool):
    """value as a finite Python float; a table (any nesting of sequences) as tuples of them, entry by entry."""
    if isinstance(value, (str, bytes)):  # not parsed
        raise TypeError(f"{name} must be a number, got {value!r}")
    if table and hasattr(value, "__iter__") and getattr(value, "ndim", 1):  # a 0-d array is one entry
        return tuple(_floats(name, entry, True) for entry in value)
    try:
        number = float(value)
    except TypeError:
        raise TypeError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an int beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value}")
    return number


def check_sign(name: str, value, positive: bool = True) -> None:
    """Refuse value unless it is finite and positive (positive=False: finite and non-negative), naming it."""
    if not (0.0 < value < math.inf or not positive and value == 0.0):  # nan fails every comparison
        raise ValueError(f"{name} must be {'positive' if positive else 'non-negative'} and finite, got {value!r}")


def store_floats(instance, names=None, tables=(), positive=(), non_negative=()) -> None:
    """Store each named field (default: all but the tables) of a frozen parameter record as a finite Python
    float, and each table field (a matrix, a column or rows) as nested tuples of them; None stays None. A string
    or what float() refuses raises TypeError naming the field; nan, +-inf or an int past float range, ValueError.
    Then check_sign bounds each field named in positive= or non_negative= (a flat table: each of its entries)."""
    for name in (*(names or [n for n in instance._fields if n not in tables]), *tables):
        if getattr(instance, name) is not None:
            object.__setattr__(instance, name, _floats(name, getattr(instance, name), name in tables))
    for name in (*positive, *non_negative):
        for value in getattr(instance, name) if name in tables else (getattr(instance, name),):
            check_sign(name, value, name in positive)


def table_shape(table) -> tuple:
    """numpy's shape of a table store_floats stored: () for a number, (n,) for n rows of unequal shapes."""
    if not isinstance(table, tuple):
        return ()
    shapes = {table_shape(row) for row in table}
    return (len(table), *shapes.pop()) if len(shapes) == 1 else (len(table),)


class AirshipParams(Record):
    """Physical constants of the vehicle (SI units).

    Aero coefficients use the folded convention: the reference area is
    absorbed into drag_coeff / lift_slope / moment_slope, so e.g. drag is
    0.5 * rho * V^2 * drag_coeff directly.
    """

    mass: float = 0.2978  # kg, all-up
    inertia_x: float = 0.0077  # kg m^2
    inertia_y: float = 0.0620  # kg m^2
    inertia_z: float = 0.0620  # kg m^2
    inertia_xz: float = 0.0  # kg m^2, roll/yaw product of inertia
    cb_offset: float = 0.20  # m, center of buoyancy above CM along body -z
    mount_x: float = 0.30  # m, thruster pivot forward of CM
    mount_z: float = 0.45  # m, thruster pivot below CM
    link_length: float = 0.10  # m, pivot-to-thruster link
    yaw_damping: float = 0.005  # N m s, linear yaw damping coefficient C2
    drag_coeff: float = 0.0071  # folded drag coefficient
    lift_slope: float = 0.0  # folded lift-curve slope, 1/rad
    moment_slope: float = 0.0  # folded pitch-moment slope, 1/rad
    ref_chord: float = 1.97  # m, moment reference length
    air_density: float = 1.205  # kg/m^3
    net_lift: float = 0.0  # N, buoyant lift minus weight (+ = rises)
    gravity: float = STANDARD_GRAVITY  # m/s^2

    def __post_init__(self):
        store_floats(self, positive=("mass", "inertia_x", "inertia_y", "inertia_z", "air_density"),
                     non_negative=("yaw_damping",))
        # Given positive principal inertias, the tensor is positive definite when
        # the (p, r) determinant that full_derivatives divides by is positive.
        if self.inertia_x * self.inertia_z - self.inertia_xz * self.inertia_xz <= 0.0:
            raise ValueError("inertia tensor (with Ixz coupling) must be positive definite")


class BodyState(Record):
    """12-component rigid-body state; its fields, in order, are the state vector's layout.

    u, v, w are body-frame velocities (m/s); p, q, r body rates (rad/s); x, y
    ground-plane position (m); h altitude, positive up (m); phi, theta, psi
    roll, pitch and yaw (rad), each wrapped to (-pi, pi] on construction.
    """

    u: float = 0.0
    v: float = 0.0
    w: float = 0.0
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0
    x: float = 0.0
    y: float = 0.0
    h: float = 0.0
    phi: float = 0.0
    theta: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        store_floats(self)
        for name in ("phi", "theta", "psi"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([getattr(self, name) for name in STATE_LABELS])

    @classmethod
    def from_array(cls, vec) -> "BodyState":
        return cls(**dict(zip(STATE_LABELS, vec, strict=True)))  # a length other than 12 raises ValueError


STATE_LABELS = BodyState._fields


class ThrusterCommand(Record):
    """Thrust (N) and the gimbal deflections delta_y/delta_p from forward (rad), each within GIMBAL_LIMIT."""

    thrust: float = 0.0
    yaw_deflection: float = 0.0
    pitch_deflection: float = 0.0

    def __post_init__(self):
        # Written as "not within" so that nan is refused too.
        if not self.thrust >= 0.0:
            raise ValueError(f"thrust must be non-negative, got {self.thrust}")
        if not abs(self.yaw_deflection) <= GIMBAL_LIMIT:
            raise ValueError(f"|delta_y| must not exceed {GIMBAL_LIMIT} rad, got {self.yaw_deflection}")
        if not abs(self.pitch_deflection) <= GIMBAL_LIMIT:
            raise ValueError(f"|delta_p| must not exceed {GIMBAL_LIMIT} rad, got {self.pitch_deflection}")


def aero_wrench(params: AirshipParams, u: float, v: float, w: float) -> tuple:
    """Aerodynamic (fx, fy, fz, mx, my, mz) in the body frame at body velocity (u, v, w).

    Airflow-frame closures: drag D = q C_D, lift L = q C_La * alpha and
    pitch moment M = q c0 C_ma * alpha with q = 0.5 rho V^2 (reference area
    folded into the coefficients), assembled as force (-D, 0, -L) and
    moment (0, M, 0), then rotated to the body frame; the flow angles are
    clipped to FLOW_ANGLE_LIMIT. Zero for stagnant flow (speed <= V_EPS).
    """
    speed_sq = u * u + v * v + w * w
    speed = math.sqrt(speed_sq)
    if speed <= V_EPS:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    # Each clamp is min(max(x, lo), hi) written as comparisons: the same float for every x, nan and -0.0 included.
    limit = FLOW_ANGLE_LIMIT
    alpha = math.atan2(w, u)
    alpha = -limit if alpha < -limit else limit if alpha > limit else alpha
    sin_beta = v / speed
    beta = math.asin(-1.0 if sin_beta < -1.0 else 1.0 if sin_beta > 1.0 else sin_beta)
    beta = -limit if beta < -limit else limit if beta > limit else beta
    q_dyn = 0.5 * params.air_density * speed_sq
    drag = q_dyn * params.drag_coeff
    lift = q_dyn * params.lift_slope * alpha
    pitch_moment = q_dyn * params.ref_chord * params.moment_slope * alpha
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    # frames.airflow_to_body applied to (-D, 0, -L) and (0, M, 0), written out
    return (
        -drag * ca - lift * sa, (lift * ca - drag * sa) * sb, (drag * sa - lift * ca) * cb,
        0.0, pitch_moment * cb, pitch_moment * sb,
    )


def thruster_wrench(params: AirshipParams, cmd: ThrusterCommand) -> tuple:
    """Vectored-thrust (fx, fy, fz, mx, my, mz) in the body frame.

    The thrust line is tilted by the yaw/pitch gimbal angles; the moment is
    arm x force, where the arm is the mount position (mount_x, 0, mount_z)
    plus the deflected link. Zero deflection puts the full thrust along +x_b.
    """
    t = cmd.thrust
    cy, sy = math.cos(cmd.yaw_deflection), math.sin(cmd.yaw_deflection)
    cp, sp = math.cos(cmd.pitch_deflection), math.sin(cmd.pitch_deflection)
    fx, fy, fz = t * (cy * cp), t * (sy * cp), t * -sp
    link = params.link_length
    ax, ay, az = params.mount_x + link * (cy * sp), link * (sy * sp), params.mount_z + link * cp
    return (fx, fy, fz, ay * fz - az * fy, az * fx - ax * fz, ax * fy - ay * fx)


def gravity_buoyancy_wrench(params: AirshipParams, cphi: float, sphi: float, cth: float, sth: float) -> tuple:
    """Net vertical force plus the pendulum restoring moment, body-frame (fx, fy, fz, mx, my, mz).

    Takes the cosine and sine of roll (cphi, sphi) and pitch (cth, sth).
    The translational effect of buoyancy and weight is their difference
    (params.net_lift, a single configurable number); the restoring moment
    is driven by the full weight acting against the CB offset, which is
    what sets the pendulum stiffness near neutral buoyancy.
    """
    # Ground z (down) in body components: the last column of frames.ground_to_body.
    down_x, down_y, down_z = -sth, sphi * cth, cphi * cth
    lift = params.net_lift
    # Weight along ground z at the CB offset (0, 0, -cb_offset): moment = offset x weight.
    arm_weight = params.cb_offset * params.mass * params.gravity
    return (
        -lift * down_x, -lift * down_y, -lift * down_z,
        -arm_weight * down_y, arm_weight * down_x, 0.0,
    )


def _body_wrench(params, u, v, w, r, cphi, sphi, cth, sth, t) -> tuple:
    """The kernel both fields share: the total body-frame (fx, fy, fz, mx, my, mz) with thrust wrench t.

    Yaw damping is in both models so that they agree on the shared manifold.
    """
    a = aero_wrench(params, u, v, w)
    s = gravity_buoyancy_wrench(params, cphi, sphi, cth, sth)
    return (
        a[0] + t[0] + s[0], a[1] + t[1] + s[1], a[2] + t[2] + s[2],
        a[3] + t[3] + s[3], a[4] + t[4] + s[4], a[5] + t[5] + s[5] - params.yaw_damping * r,
    )


def full_derivatives(params: AirshipParams, state, thrust_wrench) -> tuple:
    """Time derivative, a 12-float tuple, of the 12-float state tuple or list for the 6-DOF model.

    thrust_wrench is the 6-float ``thruster_wrench`` of the command held over the step.
    """
    u, v, w, p, q, r, _, _, _, phi, theta, psi = state  # a length other than 12 raises ValueError
    cphi, sphi = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cpsi, spsi = math.cos(psi), math.sin(psi)
    fx, fy, fz, mx, my, mz = _body_wrench(params, u, v, w, r, cphi, sphi, cth, sth, thrust_wrench)
    mass = params.mass

    ix, iy, iz, ixz = params.inertia_x, params.inertia_y, params.inertia_z, params.inertia_xz
    rhs_x = mx - q * r * (iz - iy) + p * q * ixz
    rhs_y = my - p * r * (ix - iz) - (p * p - r * r) * ixz
    rhs_z = mz - p * q * (iy - ix) - q * r * ixz
    # Ixz couples only roll and yaw: q decouples and (p, r) is a 2x2 system
    # whose determinant AirshipParams keeps positive.
    det = ix * iz - ixz * ixz

    if abs(cth) < 1e-12:
        raise ZeroDivisionError("attitude-rate kinematics singular at theta = +-pi/2")
    yaw_rate_part = q * sphi + r * cphi
    # Ground velocity is ground_to_body(att).T @ (u, v, w), written out;
    # ground z points down and h is measured up.
    sth_cpsi, sth_spsi = sth * cpsi, sth * spsi
    return (
        v * r - w * q + fx / mass, -u * r + w * p + fy / mass, u * q - v * p + fz / mass,
        (iz * rhs_x + ixz * rhs_z) / det, rhs_y / iy, (ixz * rhs_x + ix * rhs_z) / det,
        cth * cpsi * u + (sphi * sth_cpsi - cphi * spsi) * v + (cphi * sth_cpsi + sphi * spsi) * w,
        cth * spsi * u + (sphi * sth_spsi + cphi * cpsi) * v + (cphi * sth_spsi - sphi * cpsi) * w,
        sth * u - sphi * cth * v - cphi * cth * w,
        p + yaw_rate_part * math.tan(theta), q * cphi - r * sphi, yaw_rate_part / cth,
    )


def planar_derivatives(params: AirshipParams, state, thrust_wrench) -> tuple:
    """Time derivative, a 12-float tuple, of the 12-float state tuple or list for the planar model.

    thrust_wrench is as for ``full_derivatives``. Raises ConstraintViolation
    if phi, theta, p or q exceed PLANAR_TOL: this model assumes the pendulum
    stability of the hull pins pitch and roll at zero, so those components
    must arrive (and stay) zero.
    """
    u, v, w, p, q, r, _, _, _, phi, theta, psi = state
    tol = PLANAR_TOL
    # Within tol, wrap_angle leaves all four unchanged and the worst violation cannot exceed tol, so the
    # check is only computed (and raises exactly as before, nan and inf included) outside it.
    if not (-tol <= phi <= tol and -tol <= theta <= tol and -tol <= p <= tol and -tol <= q <= tol):
        off_manifold = max(abs(wrap_angle(phi)), abs(wrap_angle(theta)), abs(p), abs(q))
        if off_manifold > tol:
            raise ConstraintViolation(
                f"planar model requires phi=theta=p=q=0, worst violation {off_manifold:.3e}"
            )

    fx, fy, fz, _, _, mz = _body_wrench(
        params, u, v, w, r, math.cos(phi), math.sin(phi), math.cos(theta), math.sin(theta), thrust_wrench
    )
    mass = params.mass
    cpsi, spsi = math.cos(psi), math.sin(psi)
    return (
        v * r + fx / mass, -u * r + fy / mass, fz / mass,
        0.0, 0.0, mz / params.inertia_z,
        u * cpsi - v * spsi, u * spsi + v * cpsi, -w,
        0.0, 0.0, r,
    )
