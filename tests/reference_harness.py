"""numpy forms of a run summary's speed statistics, kept as a test oracle.

``harness._summarize`` computes the speed norms, their maximum and the mean
over the tail in pure Python, so that a run without tables never imports
numpy. These are the forms it replaced; ``test_harness_reference.py``
compares the two with ``==``.
"""

import numpy as np


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
