"""floattext.cells against repr(float(v)), the text every CSV cell must have."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chflow import floattext

from conftest import float_edge_values


def _reprs(values):
    return [repr(v).encode() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def _assert_reprs(values):
    text = floattext.cells(values)
    assert text.dtype == np.dtype(f"S{floattext.WIDTH}")
    assert text.shape == np.shape(values)
    assert text.ravel().tolist() == _reprs(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_every_bit_pattern_reads_as_its_repr(patterns):
    # NaN payloads, both infinities, both zeros and subnormals included
    _assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_edge_values_read_as_their_repr():
    _assert_reprs(float_edge_values())


def test_random_bit_patterns_and_scales_read_as_their_repr():
    rng = np.random.default_rng(16)
    _assert_reprs(rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64,
                               endpoint=True).view(np.float64))
    _assert_reprs(rng.standard_normal(50_000) * 10.0 ** rng.integers(-320, 300, 50_000))
    _assert_reprs(np.arange(1, 50_000, dtype=np.uint64).view(np.float64))   # subnormals
    _assert_reprs(np.arange(-50_000, 50_000, 3, dtype=np.float64))          # integers


@pytest.mark.parametrize("shape", [(), (0,), (3, 4), (2, 0, 5)])
def test_shape_is_kept(shape):
    values = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape) * 0.1 - 0.25
    _assert_reprs(values)


def test_longest_text_fills_the_width():
    assert len(repr(-2.2250738585072014e-308)) == floattext.WIDTH
    _assert_reprs([-2.2250738585072014e-308, -1.2345678901234567e-100])
