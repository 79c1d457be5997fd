"""The pure-Python summary statistics against their numpy forms in reference_harness.

``harness._summarize`` takes the speed norms as ``sqrt((u*u + v*v) + w*w)``,
their maximum with the builtin ``max`` and the steady speed as numpy's pairwise
sum divided by the count (``harness._mean``). Each must equal numpy's value bit
for bit (``==``), since the summaries and their goldens were written by numpy.
"""

import random

import pytest
import reference_harness as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp.harness import CSV_COLUMNS, Scenario, SimRecord, _mean, _summarize

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# Lengths about the 8-value unroll and the 128-value block of numpy's pairwise sum.
PINNED_LENGTHS = [7, 8, 9, 127, 128, 129, 136, 257]


def _values(seed: int, n: int, signed: bool) -> list:
    """n floats whose magnitudes spread over about 1e-5 to 1e3."""
    rng = random.Random(seed)
    return [(rng.choice((-1.0, 1.0)) if signed else 1.0) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-5, 2)
            for _ in range(n)]


LENGTHS = st.sampled_from(PINNED_LENGTHS) | st.integers(1, 3000)
SEEDS = st.integers(0, 2**32 - 1)


@PROPERTY
@given(n=LENGTHS, seed=SEEDS, signed=st.booleans())
def test_mean_matches_numpy_mean(n, seed, signed):
    values = _values(seed, n, signed)
    assert _mean(values) == ref.mean(values)


@pytest.mark.parametrize("n", PINNED_LENGTHS + [1, 2, 1000, 3000])
def test_mean_matches_numpy_mean_at_block_edges(n):
    for seed in range(20):
        values = _values(seed, n, signed=False)
        assert _mean(values) == ref.mean(values), f"n={n}, seed={seed}"


def _summary_and_reference(rows):
    blank = SimRecord(*[0.0] * (len(CSV_COLUMNS) - 1), ())
    summary = _summarize(Scenario(), [blank._replace(u=u, v=v, w=w) for u, v, w in rows])
    want = ref.speed_stats(rows, tail=max(1, len(rows) // 10))
    assert all(type(summary[key]) is float for key in want)
    return {key: summary[key] for key in want}, want


@PROPERTY
@given(seed=SEEDS, signed=st.booleans())
def test_summary_speed_of_one_sample_is_numpy_norm(seed, signed):
    # With one record every statistic is that record's norm.
    got, want = _summary_and_reference([tuple(_values(seed, 3, signed))])
    assert got == want


@PROPERTY
@given(n=st.integers(1, 400), seed=SEEDS)
def test_summary_speed_statistics_match_numpy(n, seed):
    flat = _values(seed, 3 * n, signed=True)
    got, want = _summary_and_reference(list(zip(flat[0::3], flat[1::3], flat[2::3])))
    assert got == want
