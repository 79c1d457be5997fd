"""Two-norm formulation of the Monte-Carlo collision integral, kept as a test oracle.

Each chunk forms g = u + d and g = u - d as (m, 3) arrays and takes each
norm with its own ``einsum``. ``ionblimp.thruster.collision_force_density_mc``
takes both norms from |d|^2 + |u|^2 +- 2 u.d in reused buffers, drawing the
same normal stream in the same order; ``test_thruster.py`` compares the two.
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
