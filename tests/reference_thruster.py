"""Earlier forms of thruster kernels, kept as test oracles.

``collision_force_density_mc`` is the two-norm formulation of the Monte-Carlo
collision integral: each chunk forms g = u + d and g = u - d as (m, 3) arrays
and takes each norm with its own ``einsum``.
``ionblimp.thruster.collision_force_density_mc`` takes both norms from
|d|^2 + |u|^2 +- 2 u.d in reused buffers, drawing the same normal stream in
the same order; ``test_thruster_reference.py`` compares the two.

``ion_mobility`` and ``mobility_from_force_balance`` each write the whole
drift factor (9/64) (q / n_air) sqrt(2 pi / kT) sqrt(1/m + 1/M) out, as
``ionblimp.thruster`` did before both shared ``_drift_factor``; the two
forms there must equal these bit for bit.
"""

import numpy as np

from ionblimp.constants import BOLTZMANN


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
