"""``pcg64.uniform_stream`` against numpy's ``Generator``, its oracle, bit for bit.

The gimbal noise of a run is drawn from this stream, and the trim_hold and
inner_loop_csv goldens pin numpy's draws, so every value must equal
``numpy.random.default_rng(seed).uniform``'s, sign of zero included, and
every refused pair of bounds must raise numpy's error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionblimp.pcg64 import _seed_state, uniform_stream

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# Word boundaries of the seed's uint32 entropy and of the 128-bit state.
PINNED_SEEDS = [0, 2**32 - 1, 2**32, 2**128]


def _outcome(uniform, low, high):
    """A draw as its exact bits, or the error it raised."""
    try:
        value = uniform(low, high)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    assert type(value) is float
    return value.hex()


def _assert_stream_matches(seed, bounds):
    ours, numpy_uniform = uniform_stream(seed), np.random.default_rng(seed).uniform
    for i, (low, high) in enumerate(bounds):
        got, want = _outcome(ours, low, high), _outcome(numpy_uniform, low, high)
        assert got == want, f"seed {seed}, draw {i}, uniform({low!r}, {high!r}): {got} != {want}"


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_seed_state_is_seed_sequence(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
    assert list(_seed_state(seed)) == want


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_pinned_seeds_draw_numpys_floats(seed):
    _assert_stream_matches(seed, [(-1.0, 1.0)] * 200 + [(-0.003, 0.003), (2.5, 7.0), (-0.0, 0.0)] * 20)


_finite = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))


@PROPERTY
@given(seed=st.integers(0, 2**130),
       bounds=st.lists(st.tuples(_finite, _finite, st.booleans()), min_size=1, max_size=40))
def test_stream_equals_numpy_generator(seed, bounds):
    # Half the pairs are put in order so that most draw; the rest keep low > high
    # as often as not, and a pair too far apart overflows, each raising numpy's error.
    _assert_stream_matches(seed, [tuple(sorted((a, b))) if ordered else (a, b) for a, b, ordered in bounds])


def test_refused_bounds_raise_numpys_errors():
    uniform = uniform_stream(0)
    with pytest.raises(OverflowError, match="high - low range exceeds valid bounds"):
        uniform(-1e308, 1e308)
    with pytest.raises(ValueError, match=r"high - low < 0"):
        uniform(0.0, -0.0)
    # A zero-width draw is +0.0, which would turn a -0.0 deflection into 0.0: the plant draws no noise then.
    assert math.copysign(1.0, uniform(-0.0, 0.0)) == 1.0
