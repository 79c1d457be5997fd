"""numpy forms of a run summary's speed and SMC statistics, kept as a test oracle.

``harness._summarize`` computes the speed norms, their maximum and the mean
over the tail, and the sliding-variable statistics of an SMC run, in pure
Python, so that a run without tables never imports numpy and an SMC run
builds no array for its summary. These are the forms it replaced;
``test_harness_reference.py`` compares the two with ``==``.
"""

import numpy as np

from ionblimp.smc import reaching_time_bound


def speeds(rows) -> np.ndarray:
    """|(u, v, w)| of each row."""
    return np.linalg.norm(np.array(rows, dtype=float).reshape(-1, 3), axis=1)


def mean(values) -> float:
    return float(np.mean(np.array(values, dtype=float)))


def speed_stats(rows, tail: int) -> dict:
    """The summary's max_speed, steady_speed and speed_drift over the rows' speeds."""
    norms = speeds(rows)
    return {"max_speed": float(np.max(norms)), "steady_speed": float(np.mean(norms[-tail:])),
            "speed_drift": float(abs(norms[-1] - norms[-tail]))}


def smc_stats(records, gains, tail: int) -> dict:
    """The summary's SMC statistics over the records' sliding variables and Lyapunov values."""
    s_all = np.array([(rec.s_x, rec.s_y, rec.s_psi) for rec in records])
    s_inf = np.max(np.abs(s_all), axis=1)
    s0 = s_all[0]
    bound = max(reaching_time_bound(gains, float(ch)) for ch in s0)
    below = np.flatnonzero(s_inf < 1e-3)
    return {"s0_inf": float(np.max(np.abs(s0))), "reaching_bound": float(bound),
            "reaching_time": float(records[below[0]].t) if below.size else float("inf"),
            "s_final_max": float(np.max(s_inf[-tail:])), "vdot_max": float(max(rec.lyap_vdot for rec in records)),
            "s_energy_final": records[-1].lyap_v}
