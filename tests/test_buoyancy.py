import math

import numpy as np
import pytest

from ionblimp.buoyancy import EnvelopeGeometry, ellipsoid_volume, lift_budget
from ionblimp.constants import STANDARD_GRAVITY
from ionblimp.dynamics import AirshipParams, BodyState, gravity_buoyancy_wrench

# 1.97 m long, 51 cm max diameter envelope of the bench vehicle.
BENCH_GEOMETRY = EnvelopeGeometry(0.985, 0.255, 0.255, envelope_mass=0.07936)


def pendulum(weight_n, cb_offset_m):
    """Params whose static wrench is a vertical force weight_n at the CB, cb_offset_m above the CM."""
    return AirshipParams(mass=weight_n / STANDARD_GRAVITY, cb_offset=cb_offset_m, net_lift=weight_n)


def static_wrench(params, att):
    """(force, moment) arrays of gravity_buoyancy_wrench at the attitude's roll and pitch; yaw does not enter."""
    terms = np.array(gravity_buoyancy_wrench(
        params, math.cos(att.phi), math.sin(att.phi), math.cos(att.theta), math.sin(att.theta)
    ))
    return terms[:3], terms[3:]


def test_ellipsoid_volume_bench_geometry():
    assert ellipsoid_volume(BENCH_GEOMETRY) == pytest.approx(0.26829044182024153, rel=1e-12)


def test_ellipsoid_volume_sphere_degenerate():
    r = 0.37
    geom = EnvelopeGeometry(r, r, r)
    assert ellipsoid_volume(geom) == pytest.approx(4.0 / 3.0 * np.pi * r**3, rel=1e-14)


def test_ellipsoid_volume_unit_axes():
    assert ellipsoid_volume(EnvelopeGeometry(1, 1, 1)) == pytest.approx(4.1887902047863905, rel=1e-14)


def test_lift_budget_bench_values():
    budget = lift_budget(BENCH_GEOMETRY, lift_per_liter=0.00111)
    assert budget.gross_lift_kg == pytest.approx(0.2978, rel=1e-4)
    assert budget.net_lift_kg == pytest.approx(0.21844, rel=1e-4)


def test_lift_budget_zero_volume_limit():
    geom = EnvelopeGeometry(1e-9, 0.255, 0.255, envelope_mass=0.05)
    budget = lift_budget(geom)
    assert budget.gross_lift_kg == pytest.approx(0.0, abs=1e-9)
    assert budget.net_lift_kg == pytest.approx(-0.05, abs=1e-9)


def test_lift_budget_unit_lift_per_liter():
    budget = lift_budget(BENCH_GEOMETRY, lift_per_liter=0.001)
    assert budget.gross_lift_kg == pytest.approx(0.26829044182024153, rel=1e-12)


def test_lift_budget_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        lift_budget(BENCH_GEOMETRY, lift_per_liter=0.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        EnvelopeGeometry(0.0, 0.255, 0.255)
    with pytest.raises(ValueError):
        EnvelopeGeometry(1, 1, 1, envelope_mass=-0.1)


def test_buoyancy_wrench_level_any_yaw():
    params = pendulum(2.92, 0.2)
    for psi in (0.0, 0.7, -2.0, np.pi):
        force, moment = static_wrench(params, BodyState(psi=psi))
        assert np.allclose(force, [0.0, 0.0, -2.92], atol=1e-14)
        assert np.allclose(moment, np.zeros(3), atol=1e-14)


def test_buoyancy_wrench_pitch_restoring():
    # Oracle: evaluate the rotated force and (0, 0, -d) x F by scalar trig.
    g_n, d, theta = 2.92, 0.2, 0.1
    force, moment = static_wrench(pendulum(g_n, d), BodyState(theta=theta))
    assert np.allclose(force, [g_n * np.sin(theta), 0.0, -g_n * np.cos(theta)], atol=1e-14)
    assert np.allclose(moment, [0.0, -d * g_n * np.sin(theta), 0.0], atol=1e-14)
    assert moment[1] < 0.0  # opposes positive pitch


def test_buoyancy_wrench_roll_restoring():
    g_n, d, phi = 2.92, 0.2, 0.1
    force, moment = static_wrench(pendulum(g_n, d), BodyState(phi=phi))
    assert np.allclose(force, [0.0, -g_n * np.sin(phi), -g_n * np.cos(phi)], atol=1e-14)
    assert np.allclose(moment, [-d * g_n * np.sin(phi), 0.0, 0.0], atol=1e-14)
    assert moment[0] < 0.0  # opposes positive roll


def test_buoyancy_force_norm_preserved():
    params = pendulum(3.5, 0.15)
    rng = np.random.default_rng(6)
    for _ in range(100):
        phi, theta, psi = rng.uniform(-np.pi, np.pi, 3)
        att = BodyState(phi=phi, theta=theta, psi=psi)
        force, _ = static_wrench(params, att)
        assert np.linalg.norm(force) == pytest.approx(3.5, rel=1e-13)


def test_buoyancy_moment_zero_only_when_axis_vertical():
    params = pendulum(3.5, 0.15)
    assert np.allclose(static_wrench(params, BodyState())[1], 0.0, atol=1e-15)
    _, inverted = static_wrench(params, BodyState(phi=np.pi))
    assert np.allclose(inverted, 0.0, atol=1e-12)
    _, tilted = static_wrench(params, BodyState(theta=0.3))
    assert np.linalg.norm(tilted) > 0.01


def test_pitch_stiffness_negative_at_level():
    params = pendulum(2.92, 0.2)
    h = 1e-6
    m_plus = static_wrench(params, BodyState(theta=+h))[1][1]
    m_minus = static_wrench(params, BodyState(theta=-h))[1][1]
    assert (m_plus - m_minus) / (2 * h) < 0.0

