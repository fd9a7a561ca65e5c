import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SketchError
from repro.sketch import sliding_window_min


def naive_window_min(values, w):
    return np.array([values[i : i + w].min() for i in range(len(values) - w + 1)])


def test_known_case():
    values = np.array([5, 3, 8, 1, 9, 2], dtype=np.uint64)
    assert list(sliding_window_min(values, 3)) == [3, 1, 1, 1]


def test_window_one_is_identity():
    values = np.array([4, 2, 7], dtype=np.uint64)
    assert np.array_equal(sliding_window_min(values, 1), values)


def test_window_equals_length():
    values = np.array([4, 2, 7], dtype=np.uint64)
    assert list(sliding_window_min(values, 3)) == [2]


def test_errors():
    v = np.arange(3, dtype=np.uint64)
    with pytest.raises(SketchError):
        sliding_window_min(v, 0)
    with pytest.raises(SketchError):
        sliding_window_min(v, 4)


def test_uint64_precision_preserved():
    # Values above 2^53 would be corrupted by a float cast.
    big = np.array([(1 << 63) + 3, (1 << 63) + 1, (1 << 63) + 2], dtype=np.uint64)
    assert list(sliding_window_min(big, 2)) == [(1 << 63) + 1, (1 << 63) + 1]


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=30),
)
def test_matches_naive(values, w):
    arr = np.array(values, dtype=np.uint64)
    if w > arr.size:
        return
    assert np.array_equal(sliding_window_min(arr, w), naive_window_min(arr, w))
