import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SketchError
from repro.sketch import HashFamily, is_prime_u64


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 2147483647]
    composites = [0, 1, 4, 9, 100, 2147483645]
    assert all(is_prime_u64(p) for p in primes)
    assert not any(is_prime_u64(c) for c in composites)


def test_is_prime_carmichael():
    # Carmichael numbers fool Fermat but not Miller-Rabin.
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime_u64(n)


def test_generate_deterministic():
    f1 = HashFamily.generate(10, seed=7)
    f2 = HashFamily.generate(10, seed=7)
    assert np.array_equal(f1.a, f2.a)
    assert np.array_equal(f1.b, f2.b)
    assert np.array_equal(f1.p, f2.p)


def test_generate_seed_sensitivity():
    f1 = HashFamily.generate(10, seed=7)
    f2 = HashFamily.generate(10, seed=8)
    assert not np.array_equal(f1.p, f2.p)


def test_generated_constants_valid():
    f = HashFamily.generate(30, seed=0)
    assert f.size == 30
    assert all(is_prime_u64(int(p)) for p in f.p)
    assert (f.a > 0).all() and (f.a < f.p).all()
    assert (f.b < f.p).all()
    assert (f.p >= (1 << 30)).all() and (f.p < (1 << 31)).all()


def test_apply_matches_scalar():
    f = HashFamily.generate(5, seed=3)
    xs = np.array([0, 1, 12345, (1 << 32) - 1, (1 << 62)], dtype=np.uint64)
    for t in range(f.size):
        vec = f.apply(t, xs)
        for x, h in zip(xs, vec):
            assert int(h) == f.apply_scalar(t, int(x))


def test_apply_range():
    f = HashFamily.generate(3, seed=1)
    xs = np.arange(1000, dtype=np.uint64)
    for t in range(3):
        h = f.apply(t, xs)
        assert (h < f.p[t]).all()


def test_apply_bad_trial():
    f = HashFamily.generate(2, seed=1)
    with pytest.raises(SketchError):
        f.apply(2, np.array([1], dtype=np.uint64))


def test_truncated_prefix_property():
    f = HashFamily.generate(10, seed=5)
    g = f.trial_slice(0, 4)
    assert g.size == 4
    assert np.array_equal(g.a, f.a[:4])
    with pytest.raises(SketchError):
        f.trial_slice(0, 11)


def test_invalid_constants_rejected():
    with pytest.raises(SketchError):
        HashFamily(
            a=np.array([0], dtype=np.uint64),
            b=np.array([0], dtype=np.uint64),
            p=np.array([101], dtype=np.uint64),
        )


@given(st.integers(min_value=0, max_value=(1 << 62)))
def test_hash_is_deterministic_function(x):
    f = HashFamily.generate(2, seed=9)
    a = f.apply(0, np.array([x], dtype=np.uint64))[0]
    b = f.apply(0, np.array([x], dtype=np.uint64))[0]
    assert a == b
