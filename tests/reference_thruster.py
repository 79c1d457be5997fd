"""Earlier forms of thruster kernels, kept as test oracles.

``collision_force_density_mc`` is the two-norm formulation of the Monte-Carlo
collision integral: each chunk forms g = u + d and g = u - d as (m, 3) arrays
and takes each norm with its own ``einsum``.
``ionblimp.thruster.collision_force_density_mc`` takes both norms from
|d|^2 + |u|^2 +- 2 u.d in reused buffers, drawing the same normal stream in
the same order; ``test_thruster_reference.py`` compares the two.

``serial_collision_force_density_mc`` is that kernel as it was before it drew
the next block on a helper thread: one thread draws and reduces each block in
turn, in one draw buffer. For the same chunk the pipelined kernel must return
the same floats bit for bit.

``ion_mobility`` and ``mobility_from_force_balance`` each write the whole
drift factor (9/64) (q / n_air) sqrt(2 pi / kT) sqrt(1/m + 1/M) out, as
``ionblimp.thruster`` did before both shared ``_drift_factor``; the two
forms there must equal these bit for bit.
"""

import numpy as np

from ionblimp.thruster import BOLTZMANN, GasIonParams


def collision_force_density_mc(p, slip_velocity, n_samples, seed, chunk):
    u = np.asarray(slip_velocity, dtype=float).reshape(3)
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(BOLTZMANN * p.temperature * (1.0 / p.neutral_mass + 1.0 / p.ion_mass))
    total = np.zeros(3)
    pairs, step = (n_samples + 1) // 2, (chunk + 1) // 2
    for start in range(0, pairs, step):
        d = rng.standard_normal((min(step, pairs - start), 3))
        d *= sigma
        g = d + u
        s_plus = np.sqrt(np.einsum("ij,ij->i", g, g))
        np.subtract(u, d, out=g)
        s_minus = np.sqrt(np.einsum("ij,ij->i", g, g))
        if start + step >= pairs and n_samples % 2:
            s_minus[-1] = 0.0
        total += (s_plus + s_minus).sum() * u + (s_plus - s_minus) @ d
    mean = total / n_samples
    return p.cross_section * (4.0 / 3.0) * p.reduced_mass * p.ion_density * p.neutral_density * mean


def serial_collision_force_density_mc(
    p: GasIonParams,
    slip_velocity,
    n_samples: int = 10_000_000,
    seed: int = 0,
    chunk: int = 1_000_000,
) -> np.ndarray:
    """Monte-Carlo evaluation of the hard-sphere collision integral, N/m^3.

    Averages Omega_D * |g| * (4/3) * (m M / (m + M)) * g over g = v_air - v_ion,
    scaled by the two number densities. g, the difference of a Maxwellian
    drifting at the slip u and a zero-mean one, is Gaussian with mean u and
    per-axis variance kT (1/M + 1/m), so it is sampled directly, in antithetic
    pairs u + d and u - d drawn from one stream whatever the chunk size. Both
    norms come from one expansion, |u +- d|^2 = |d|^2 + |u|^2 +- 2 u.d, computed
    in one set of buffers allocated per call, so u = 0 gives exactly zero.
    Deterministic for a fixed seed and sample count; the independent oracle for
    collision_force_density, kept free of that closed form.
    """
    for name, value in (("n_samples", n_samples), ("chunk", chunk)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    u = np.asarray(slip_velocity, dtype=float).reshape(3)
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(BOLTZMANN * p.temperature * (1.0 / p.neutral_mass + 1.0 / p.ion_mass))
    total, u_sq, two_u = np.zeros(3), u @ u, 2.0 * u
    pairs, step = (n_samples + 1) // 2, (chunk + 1) // 2
    size = min(step, pairs)
    d_buf, (base_buf, cross_buf, plus_buf) = np.empty((size, 3)), np.empty((3, size))
    for start in range(0, pairs, step):
        m = min(step, pairs - start)
        d, base, cross, s_plus = d_buf[:m], base_buf[:m], cross_buf[:m], plus_buf[:m]
        rng.standard_normal(out=d)
        d *= sigma
        np.einsum("ij,ij->i", d, d, out=base)
        base += u_sq
        np.matmul(d, two_u, out=cross)
        # |u + d|^2 = |d|^2 + |u|^2 + 2 u.d. Rounding takes a square below zero (and
        # its root to nan) only for u + d within about 1e-8 (|u| + |d|) of zero: no real draw.
        np.add(base, cross, out=s_plus)
        np.sqrt(s_plus, out=s_plus)
        s_minus = np.subtract(base, cross, out=base)  # |u - d|^2
        np.sqrt(s_minus, out=s_minus)
        if start + step >= pairs and n_samples % 2:
            s_minus[-1] = 0.0  # an odd n_samples averages the last draw without its mirror
        total += np.add(s_plus, s_minus, out=cross).sum() * u + np.subtract(s_plus, s_minus, out=cross) @ d
    mean = total / n_samples
    return p.cross_section * (4.0 / 3.0) * p.reduced_mass * p.ion_density * p.neutral_density * mean


def ion_mobility(p):
    return (
        9.0 / 64.0
        * (p.ion_charge / p.neutral_density)
        * np.sqrt(2.0 * np.pi / (BOLTZMANN * p.temperature))
        * np.sqrt(1.0 / p.ion_mass + 1.0 / p.neutral_mass)
        * p.cross_section
    )


def mobility_from_force_balance(p):
    return (
        9.0 / 64.0
        * (p.ion_charge / p.neutral_density)
        * np.sqrt(2.0 * np.pi / (BOLTZMANN * p.temperature))
        * np.sqrt(1.0 / p.ion_mass + 1.0 / p.neutral_mass)
        / p.cross_section
    )
